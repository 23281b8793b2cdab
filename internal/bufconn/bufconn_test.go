package bufconn

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msg := []byte("hello interdomain world")
	go func() { a.Write(msg) }()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q", buf)
	}
}

func TestBothDirections(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	// Simultaneous writes both ways — the net.Pipe deadlock case.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a.Write([]byte("from-a")) }()
	go func() { defer wg.Done(); b.Write([]byte("from-b")) }()
	bufA, bufB := make([]byte, 6), make([]byte, 6)
	io.ReadFull(a, bufA)
	io.ReadFull(b, bufB)
	wg.Wait()
	if string(bufA) != "from-b" || string(bufB) != "from-a" {
		t.Fatalf("got %q / %q", bufA, bufB)
	}
}

func TestCloseUnblocksReader(t *testing.T) {
	a, b := Pipe()
	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := b.Read(buf)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-errCh:
		if err != io.EOF {
			t.Fatalf("err = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not unblocked by close")
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	a, b := Pipe()
	b.Close()
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("write after peer close succeeded")
	}
}

func TestBackpressure(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	big := make([]byte, defaultLimit+1024)
	done := make(chan struct{})
	go func() {
		a.Write(big)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("oversized write completed without reader")
	case <-time.After(50 * time.Millisecond):
	}
	// Drain; the writer must now finish.
	go io.Copy(io.Discard, b)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never unblocked")
	}
}

func TestReadDeadline(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	buf := make([]byte, 1)
	_, err := b.Read(buf)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// Clearing the deadline makes reads block again (until data).
	b.SetReadDeadline(time.Time{})
	go a.Write([]byte("y"))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
}

func TestAddrs(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if a.LocalAddr().String() != b.RemoteAddr().String() {
		t.Fatal("addr mismatch")
	}
	if a.LocalAddr().Network() != "bufconn" {
		t.Fatalf("network = %q", a.LocalAddr().Network())
	}
}

// TestWriteBuffersLargerThanPipe: one vectored write of more than the
// pipe holds arrives whole and in order while a reader drains it, and
// the caller's buffers are left as they were.
func TestWriteBuffersLargerThanPipe(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	var bufs net.Buffers
	var want []byte
	for i := 0; len(want) <= defaultLimit*5/2; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 1+i*7919%65536)
		bufs = append(bufs, p)
		want = append(want, p...)
	}
	orig := append(net.Buffers(nil), bufs...)
	type result struct {
		n   int64
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := a.WriteBuffers(bufs)
		done <- result{n, err}
	}()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil || r.n != int64(len(want)) {
		t.Fatalf("WriteBuffers = %d, %v; want %d, nil", r.n, r.err, len(want))
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the reader got the buffers' bytes out of order")
	}
	for i := range bufs {
		if len(bufs[i]) != len(orig[i]) || &bufs[i][0] != &orig[i][0] {
			t.Fatalf("WriteBuffers changed the caller's buffer %d", i)
		}
	}
}

func TestManyMessagesOrdered(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const n = 1000
	go func() {
		for i := 0; i < n; i++ {
			a.Write([]byte{byte(i)})
		}
	}()
	buf := make([]byte, n)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if buf[i] != byte(i) {
			t.Fatalf("byte %d = %d", i, buf[i])
		}
	}
}
