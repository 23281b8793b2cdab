package bgp

// The write side: whoever has a message writes it, under one mutex, at
// message boundaries. These tests hold that rule against a raw neighbor
// that parses every byte the session puts on the wire.

import (
	"errors"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peering/internal/bufconn"
	"peering/internal/clock"
	"peering/internal/faultconn"
	"peering/internal/wire"
)

// readAll parses everything the session writes to its end of conn, as
// whole messages, until the transport ends.
func readAll(conn net.Conn) (msgs []wire.Message, err error) {
	for {
		m, err := wire.ReadMessage(conn, wire.DefaultOptions)
		if err != nil {
			return msgs, err
		}
		msgs = append(msgs, m)
	}
}

// rawSession runs a session on clk (nil: the system clock) against a
// raw neighbor that has completed the handshake and now says nothing.
func rawSession(t *testing.T, connA, connB net.Conn, clk clock.Clock, hold time.Duration) (*Session, *collector) {
	t.Helper()
	ha := newCollector()
	sa := New(connA, Config{LocalAS: 1, LocalID: addr("1.1.1.1"), HoldTime: hold, Clock: clk, Describe: "A"}, ha)
	go sa.Run()
	t.Cleanup(func() { sa.Close() })
	rawPeer(t, connB, uint16(hold/time.Second))
	waitEstablished(t, ha)
	return sa, ha
}

func waitClosed(t *testing.T, h *collector, what string) {
	t.Helper()
	select {
	case <-h.closeCh:
	case <-time.After(5 * time.Second):
		t.Fatal(what)
	}
}

// A neighbor that goes silent is told why it is being dropped (RFC 4271
// §6.5): the NOTIFICATION is on the wire before the transport closes.
func TestHoldExpirySendsNotification(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	connA, connB := bufconn.Pipe()
	_, ha := rawSession(t, connA, connB, clk, 3*time.Second)

	// Step to each keepalive and see it land, so no write is in flight
	// when the hold timer fires with the third.
	for i := 0; i < 2; i++ {
		clk.Advance(time.Second)
		if m, err := wire.ReadMessage(connB, wire.DefaultOptions); err != nil || m.Type() != wire.MsgKeepalive {
			t.Fatalf("keepalive %d: got %v, %v", i+1, m, err)
		}
	}
	clk.Advance(time.Second)
	waitClosed(t, ha, "hold timer never expired")

	msgs, err := readAll(connB)
	if len(msgs) == 0 {
		t.Fatalf("transport closed with no NOTIFICATION (read error %v)", err)
	}
	n, ok := msgs[len(msgs)-1].(*wire.Notification)
	if !ok || n.Code != wire.CodeHoldTimerExpired {
		t.Fatalf("last message before EOF = %v, want Hold Timer Expired NOTIFICATION", msgs[len(msgs)-1])
	}
}

// A sender wedged in conn.Write must not keep the hold timer from
// ending the session: the courtesy NOTIFICATION is skipped, the
// transport closes on time, and closing it releases the wedged writer.
func TestHoldExpiryClosesStalledSession(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	fa, fb := faultconn.Pipe(clk)
	sa, ha := rawSession(t, fa, fb, clk, 3*time.Second)

	fa.Stall()
	sent := make(chan error, 1)
	go func() { sent <- sa.Send(sampleUpdate()) }() // wedges in the write, as a flusher would
	clk.Advance(2 * time.Second)                    // keepalives queue behind it
	select {
	case err := <-sent:
		t.Fatalf("Send returned %v through a stalled transport", err)
	case <-ha.closeCh:
		t.Fatal("session closed before its hold time")
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Second)
	waitClosed(t, ha, "hold expiry did not close a session whose writer is wedged")
	select {
	case err := <-sent:
		if err == nil {
			t.Fatal("wedged Send reported success after the session closed under it")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("closing the transport did not release the wedged Send")
	}
}

// Many senders, the keepalive generator and an administrative Close
// share one transport: the neighbor parses every byte as whole
// messages, sees exactly the UPDATEs whose Send succeeded, and the
// Cease is the last thing it reads.
func TestConcurrentWritersKeepMessageBoundaries(t *testing.T) {
	const senders, each = 8, 300
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	connA, connB := bufconn.Pipe()
	sa, ha := rawSession(t, connA, connB, clk, 30*time.Second)

	type result struct {
		msgs []wire.Message
		err  error
	}
	read := make(chan result, 1)
	go func() {
		msgs, err := readAll(connB)
		read <- result{msgs, err}
	}()

	var ok atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if sa.Send(sampleUpdate()) == nil {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // two keepalive ticks and the Close land among the Sends
		defer wg.Done()
		for ok.Load() < senders*each/4 {
			time.Sleep(50 * time.Microsecond)
		}
		clk.Advance(10 * time.Second)
		clk.Advance(10 * time.Second)
		sa.Close()
	}()
	wg.Wait()
	waitClosed(t, ha, "Close did not close the session")
	if err := sa.Err(); err != nil {
		t.Fatalf("administrative Close ended the session with %v: a Send refused behind the Cease must not", err)
	}

	var got result
	select {
	case got = <-read:
	case <-time.After(5 * time.Second):
		t.Fatal("neighbor never read to the end of the transport")
	}
	if !errors.Is(got.err, io.EOF) {
		t.Fatalf("stream did not end on a message boundary: %v after %d messages", got.err, len(got.msgs))
	}
	updates := 0
	for _, m := range got.msgs {
		if m.Type() == wire.MsgUpdate {
			updates++
		}
	}
	if int64(updates) != ok.Load() {
		t.Fatalf("neighbor read %d UPDATEs, %d Sends succeeded", updates, ok.Load())
	}
	last, _ := got.msgs[len(got.msgs)-1].(*wire.Notification)
	if last == nil || last.Code != wire.CodeCease {
		t.Fatalf("last message = %v, want the Cease", got.msgs[len(got.msgs)-1])
	}
}

// failingConn fails every Write once told to; reads go on blocking, so
// only a sender can find out.
type failingConn struct {
	net.Conn
	fail atomic.Bool
}

func (c *failingConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, errors.New("write: injected failure")
	}
	return c.Conn.Write(p)
}

// lockedCloser is a handler whose Closed takes a lock its senders hold
// while they send — the shape of federation's agent.
type lockedCloser struct {
	*collector
	mu *sync.Mutex
}

func (h lockedCloser) Closed(s *Session, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.collector.Closed(s, err)
}

// A Send whose write fails ends the session, but never on the sender's
// goroutine: the sender gets the error back while still holding the
// lock Closed wants, and Closed runs once it lets go.
func TestFailedSendDoesNotRunClosedOnSender(t *testing.T) {
	connA, connB := bufconn.Pipe()
	fc := &failingConn{Conn: connA}
	var mu sync.Mutex
	ha := lockedCloser{newCollector(), &mu}
	sa := New(fc, Config{LocalAS: 1, LocalID: addr("1.1.1.1"), Describe: "A"}, ha)
	go sa.Run()
	defer sa.Close()
	rawPeer(t, connB, 90)
	waitEstablished(t, ha.collector)

	fc.fail.Store(true)
	mu.Lock()
	sent := make(chan error, 1)
	go func() { sent <- sa.Send(sampleUpdate()) }()
	select {
	case err := <-sent:
		if err == nil {
			t.Fatal("Send over a failing transport reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send deadlocked against the lock its caller holds")
	}
	select {
	case <-ha.closeCh:
		t.Fatal("Closed ran while the sender's lock was held")
	default:
	}
	mu.Unlock()
	waitClosed(t, ha.collector, "failed write did not end the session")
	if err := sa.Err(); err == nil {
		t.Fatal("session ended by a failed write carries no error")
	}
}

// cutConn counts its write calls and fails every one from the
// failFrom-th on (0: none fails).
type cutConn struct {
	net.Conn
	failFrom int32
	writes   atomic.Int32
}

func (c *cutConn) Write(p []byte) (int, error) {
	if n := c.writes.Add(1); c.failFrom > 0 && n >= c.failFrom {
		return 0, errors.New("write: injected failure")
	}
	return c.Conn.Write(p)
}

// SendRuns packs runs into shared writes, cut between runs once a write
// reaches 64 KiB, and reports which runs went out: not a run that does
// not encode, which is left out alone, and not the runs of a write that
// failed or of any after it.
func TestSendRunsCutsWritesAndReportsRuns(t *testing.T) {
	fat := sampleUpdate().Attrs
	for i := 0; i < 1100; i++ {
		fat.AddCommunity(wire.MakeCommunity(47065, uint16(i)))
	}
	runs := make([]wire.Update, 40)
	for i := range runs {
		attrs := sampleUpdate().Attrs
		attrs.HasMED, attrs.MED = true, uint32(i)
		if i == 5 {
			attrs = fat
		}
		runs[i].Attrs = attrs
		for j := 0; j < 500; j++ {
			runs[i].Reach = append(runs[i].Reach, wire.NLRI{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(i), byte(j >> 8), byte(j)}), 32)})
		}
	}
	// cut is the first run of the second write.
	cut, size := 0, 0
	for i := range runs {
		if b, _, err := wire.AppendRun(nil, nil, runs[i].Attrs, runs[i].Reach, wire.DefaultOptions); err == nil {
			size += len(b)
		}
		if cut = i + 1; size >= 64<<10 {
			break
		}
	}
	if cut >= len(runs) {
		t.Fatalf("the runs encode to %d bytes, all in one write", size)
	}
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	for _, failFrom := range []int32{0, 4} { // the handshake writes twice, then the runs
		connA, connB := bufconn.Pipe()
		cc := &cutConn{Conn: connA, failFrom: failFrom}
		sa, _ := rawSession(t, cc, connB, clk, 90*time.Second)
		go io.Copy(io.Discard, connB)
		sent, err := sa.SendRuns(runs, nil)
		if writes := cc.writes.Load() - 2; writes != 2 {
			t.Fatalf("failFrom %d: the runs took %d writes, want 2", failFrom, writes)
		}
		if (err != nil) != (failFrom > 0) {
			t.Fatalf("failFrom %d: SendRuns returned %v", failFrom, err)
		}
		for i, ok := range sent {
			if want := i != 5 && (failFrom == 0 || i < cut); ok != want {
				t.Fatalf("failFrom %d: run %d of %d (second write from %d) sent %v, want %v", failFrom, i, len(runs), cut, ok, want)
			}
		}
	}
}
