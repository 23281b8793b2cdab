package faultconn

import (
	"errors"
	"net"
	"testing"
	"time"

	"peering/internal/clock"
)

func readN(t *testing.T, c *Conn, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	got := 0
	done := make(chan error, 1)
	go func() {
		for got < n {
			m, err := c.Read(buf[got:])
			got += m
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("read: %v (got %d/%d bytes)", err, got, n)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("read stalled at %d/%d bytes", got, n)
	}
	return buf
}

func TestPassthrough(t *testing.T) {
	a, b := Pipe(nil)
	if _, err := a.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := readN(t, b, 5); string(got) != "hello" {
		t.Fatalf("read %q", got)
	}
	if _, err := b.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	readN(t, a, 2)
	if st := a.Stats(); st.BytesWritten != 5 || st.Writes != 1 || st.BytesRead != 2 || st.WritesDropped != 0 {
		t.Fatalf("a stats = %+v", st)
	}
	if st := b.Stats(); st.BytesWritten != 2 || st.BytesRead != 5 {
		t.Fatalf("b stats = %+v", st)
	}
}

func TestPartitionDropsWholeWritesAndHeals(t *testing.T) {
	a, b := Pipe(nil)
	a.Partition()
	// Writes during the partition report success — a lost packet, not a
	// broken socket.
	if n, err := a.Write([]byte("lost")); err != nil || n != 4 {
		t.Fatalf("write during partition = %d, %v", n, err)
	}
	if st := a.Stats(); st.WritesDropped != 1 || st.BytesDropped != 4 || st.BytesWritten != 0 || st.Writes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	a.Heal()
	if _, err := a.Write([]byte("alive")); err != nil {
		t.Fatal(err)
	}
	// Only the post-heal write arrives; the partitioned one stays lost.
	if got := readN(t, b, 5); string(got) != "alive" {
		t.Fatalf("read %q", got)
	}
}

func TestPartitionBothIsSymmetric(t *testing.T) {
	a, b := Pipe(nil)
	PartitionBoth(a, b)
	a.Write([]byte("x"))
	b.Write([]byte("y"))
	if a.Stats().WritesDropped != 1 || b.Stats().WritesDropped != 1 {
		t.Fatalf("drops = %+v / %+v", a.Stats(), b.Stats())
	}
	HealBoth(a, b)
	a.Write([]byte("1"))
	b.Write([]byte("2"))
	if got := readN(t, b, 1); string(got) != "1" {
		t.Fatalf("b read %q", got)
	}
	if got := readN(t, a, 1); string(got) != "2" {
		t.Fatalf("a read %q", got)
	}
}

func TestDropAfterKeepsCrossingWriteWhole(t *testing.T) {
	a, b := Pipe(nil)
	a.DropAfter(5)
	a.Write([]byte("abc"))  // 3 of 5 spent
	a.Write([]byte("defg")) // crosses the threshold: passes whole
	a.Write([]byte("hij"))  // blackholed
	if got := readN(t, b, 7); string(got) != "abcdefg" {
		t.Fatalf("read %q", got)
	}
	if st := a.Stats(); st.WritesDropped != 1 || st.BytesDropped != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Negative disables the trigger again.
	a.DropAfter(-1)
	a.Write([]byte("back"))
	if got := readN(t, b, 4); string(got) != "back" {
		t.Fatalf("read %q", got)
	}
}

func TestReset(t *testing.T) {
	a, b := Pipe(nil)
	a.Write([]byte("pre"))
	readN(t, b, 3)
	a.Reset()
	if _, err := a.Write([]byte("post")); !errors.Is(err, ErrReset) {
		t.Fatalf("write after reset: %v", err)
	}
	buf := make([]byte, 1)
	if _, err := a.Read(buf); !errors.Is(err, ErrReset) {
		t.Fatalf("read after reset: %v", err)
	}
	// The peer sees the conn die too (its inner pipe is closed).
	if _, err := b.Read(buf); err == nil {
		t.Fatal("peer read succeeded after reset")
	}
}

func TestLatencyRunsOnInjectedClock(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	a, b := Pipe(clk)
	a.SetLatency(100 * time.Millisecond)
	wrote := make(chan struct{})
	go func() {
		a.Write([]byte("slow"))
		close(wrote)
	}()
	// The write parks on the virtual clock: it cannot complete until
	// time moves, so the test never sleeps wall-clock time.
	deadline := time.Now().Add(5 * time.Second)
	for clk.PendingTimers() == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("write never armed its latency timer")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-wrote:
		t.Fatal("write completed before latency elapsed")
	default:
	}
	clk.Advance(100 * time.Millisecond)
	select {
	case <-wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("write did not complete after Advance")
	}
	if got := readN(t, b, 4); string(got) != "slow" {
		t.Fatalf("read %q", got)
	}
}

func TestWrapArbitraryConn(t *testing.T) {
	inner, peer := Pipe(nil) // reuse the pipe as an arbitrary net.Conn
	c := Wrap(inner, nil)
	c.Write([]byte("zz"))
	if got := readN(t, peer, 2); string(got) != "zz" {
		t.Fatalf("read %q", got)
	}
	if c.LocalAddr() == nil || c.RemoteAddr() == nil {
		t.Fatal("addrs not delegated")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptNextFlipsOneByteKeepingFraming(t *testing.T) {
	a, b := Pipe(nil)
	a.CorruptNext(1)
	msg := []byte("0123456789")
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := readN(t, b, len(msg))
	diffs := 0
	for i := range msg {
		if got[i] != msg[i] {
			diffs++
			if i != len(msg)/2 {
				t.Fatalf("byte %d corrupted, want only the middle (%d)", i, len(msg)/2)
			}
		}
	}
	if diffs != 1 {
		t.Fatalf("%d bytes corrupted, want exactly 1", diffs)
	}
	if st := a.Stats(); st.WritesCorrupted != 1 {
		t.Fatalf("WritesCorrupted = %d, want 1", st.WritesCorrupted)
	}
	// The caller's buffer must be untouched.
	if string(msg) != "0123456789" {
		t.Fatalf("caller buffer damaged: %q", msg)
	}
	// The trigger is spent: the next write passes clean.
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	if got := readN(t, b, len(msg)); string(got) != string(msg) {
		t.Fatalf("post-trigger write corrupted: %q", got)
	}
}

func TestStallBlocksWritesUntilUnstall(t *testing.T) {
	a, b := Pipe(nil)
	a.Stall()
	wrote := make(chan error, 1)
	go func() {
		_, err := a.Write([]byte("delayed"))
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("write completed during stall (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	a.Unstall()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write still blocked after Unstall")
	}
	if got := readN(t, b, 7); string(got) != "delayed" {
		t.Fatalf("read %q after unstall", got)
	}
}

func TestResetReleasesStalledWriters(t *testing.T) {
	a, _ := Pipe(nil)
	a.Stall()
	wrote := make(chan error, 1)
	go func() {
		_, err := a.Write([]byte("doomed"))
		wrote <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Reset()
	select {
	case err := <-wrote:
		if !errors.Is(err, ErrReset) {
			t.Fatalf("stalled write returned %v, want ErrReset", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled write not released by Reset")
	}
}

// Close fails a stalled write the way closing a real transport fails a
// blocked one: a session that gives up on a frozen peer must get its
// writer back.
func TestCloseReleasesStalledWriters(t *testing.T) {
	a, _ := Pipe(nil)
	a.Stall()
	wrote := make(chan error, 1)
	go func() {
		_, err := a.Write([]byte("doomed"))
		wrote <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	select {
	case err := <-wrote:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("stalled write returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled write not released by Close")
	}
}

// threeBufs is a vectored write of 3 + 4 + 5 bytes.
func threeBufs() net.Buffers {
	return net.Buffers{[]byte("abc"), []byte("defg"), []byte("hijkl")}
}

// A partition and a drop trigger each take a vectored write as one
// call: all of its buffers are lost together, counted as one write.
func TestWriteBuffersDroppedWhole(t *testing.T) {
	a, b := Pipe(nil)
	a.Partition()
	if n, err := a.WriteBuffers(threeBufs()); err != nil || n != 12 {
		t.Fatalf("WriteBuffers during partition = %d, %v", n, err)
	}
	if st := a.Stats(); st.WritesDropped != 1 || st.BytesDropped != 12 || st.BytesWritten != 0 {
		t.Fatalf("stats after the partitioned call = %+v", st)
	}
	a.Heal()
	a.DropAfter(2)
	a.WriteBuffers(threeBufs()) // crosses the threshold: passes whole
	a.WriteBuffers(threeBufs()) // blackholed, every buffer of it
	if st := a.Stats(); st.WritesDropped != 2 || st.BytesDropped != 24 || st.BytesWritten != 12 || st.Writes != 1 {
		t.Fatalf("stats after the drop trigger = %+v", st)
	}
	a.DropAfter(-1)
	a.Write([]byte("!"))
	if got := readN(t, b, 13); string(got) != "abcdefghijkl!" {
		t.Fatalf("read %q", got)
	}
}

// CorruptNext spends one trigger on a vectored write and flips exactly
// one byte — the middle of the whole call — in a copy, never in the
// caller's buffers.
func TestWriteBuffersCorruptsOneByteOfACopy(t *testing.T) {
	a, b := Pipe(nil)
	a.CorruptNext(1)
	bufs := threeBufs()
	if _, err := a.WriteBuffers(bufs); err != nil {
		t.Fatal(err)
	}
	got := readN(t, b, 12)
	want := []byte("abcdefghijkl")
	for i := range want {
		if (got[i] != want[i]) != (i == len(want)/2) {
			t.Fatalf("read %q, want %q with only byte %d flipped", got, want, len(want)/2)
		}
	}
	if s := string(bufs[0]) + string(bufs[1]) + string(bufs[2]); s != string(want) {
		t.Fatalf("caller buffers damaged: %q", s)
	}
	if st := a.Stats(); st.WritesCorrupted != 1 || st.BytesWritten != 12 {
		t.Fatalf("stats = %+v", st)
	}
	a.WriteBuffers(bufs) // the trigger is spent
	if got := readN(t, b, 12); string(got) != string(want) {
		t.Fatalf("post-trigger call corrupted: %q", got)
	}
}

// Stall parks a vectored write whole, Unstall lets it through whole,
// and Close fails one that is parked.
func TestWriteBuffersStallAndClose(t *testing.T) {
	a, b := Pipe(nil)
	a.Stall()
	wrote := make(chan error, 1)
	go func() {
		_, err := a.WriteBuffers(threeBufs())
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("WriteBuffers completed during stall (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if n := b.inner.(interface{ Buffered() int }).Buffered(); n != 0 {
		t.Fatalf("%d bytes of a stalled call reached the pipe", n)
	}
	a.Unstall()
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if got := readN(t, b, 12); string(got) != "abcdefghijkl" {
		t.Fatalf("read %q after unstall", got)
	}

	a.Stall()
	go func() {
		_, err := a.WriteBuffers(threeBufs())
		wrote <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	select {
	case err := <-wrote:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("stalled WriteBuffers returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled WriteBuffers not released by Close")
	}
}

// Latency is waited once per vectored write, not once per buffer.
func TestWriteBuffersLatencyOncePerCall(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	a, b := Pipe(clk)
	a.SetLatency(100 * time.Millisecond)
	wrote := make(chan struct{})
	go func() {
		a.WriteBuffers(threeBufs())
		close(wrote)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for clk.PendingTimers() == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("WriteBuffers never armed its latency timer")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(100 * time.Millisecond)
	select {
	case <-wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("WriteBuffers waited for more than one latency")
	}
	if got := readN(t, b, 12); string(got) != "abcdefghijkl" {
		t.Fatalf("read %q", got)
	}
}

// A wrapped conn without a WriteBuffers of its own gets the call as a
// net.Buffers write, and the caller's slice is left as it was.
func TestWriteBuffersOverPlainConn(t *testing.T) {
	inner, peer := Pipe(nil)
	c := Wrap(struct{ net.Conn }{inner}, nil)
	bufs := threeBufs()
	if n, err := c.WriteBuffers(bufs); err != nil || n != 12 {
		t.Fatalf("WriteBuffers = %d, %v", n, err)
	}
	if got := readN(t, peer, 12); string(got) != "abcdefghijkl" {
		t.Fatalf("read %q", got)
	}
	if len(bufs) != 3 || string(bufs[2]) != "hijkl" {
		t.Fatalf("caller's buffers consumed: %q", bufs)
	}
}
