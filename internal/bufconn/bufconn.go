// Package bufconn provides an in-memory, buffered, bidirectional
// net.Conn pair. Unlike net.Pipe (which is fully synchronous and
// deadlocks two endpoints that both write before reading — exactly what
// two BGP speakers do with their OPENs), bufconn decouples writer and
// reader with a per-direction byte buffer.
//
// The testbed uses bufconn wherever two in-process components hold a
// "TCP" connection: BGP sessions inside emulations, client-server
// control channels, and tunnel transports — thousands of sessions with
// no file descriptors or ports consumed.
package bufconn

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// ErrTimeout is returned when a deadline expires.
var ErrTimeout = errors.New("bufconn: deadline exceeded")

// defaultLimit bounds each direction's buffer; writers block when full,
// providing TCP-like backpressure.
const defaultLimit = 1 << 20

// Pipe returns two connected endpoints. Data written to one is readable
// from the other.
func Pipe() (*Conn, *Conn) {
	ab := newBuffer(defaultLimit)
	ba := newBuffer(defaultLimit)
	a := &Conn{r: ba, w: ab, local: pipeAddr("bufconn-a"), remote: pipeAddr("bufconn-b")}
	b := &Conn{r: ab, w: ba, local: pipeAddr("bufconn-b"), remote: pipeAddr("bufconn-a")}
	return a, b
}

type pipeAddr string

func (a pipeAddr) Network() string { return "bufconn" }
func (a pipeAddr) String() string  { return string(a) }

// buffer is one direction's byte queue. Unread bytes live in
// data[off:]; reads advance off and writes compact the consumed head
// back to the front before growing, so a long-lived connection settles
// into one reused backing array instead of reallocating per window.
type buffer struct {
	mu       sync.Mutex
	cond     *sync.Cond
	data     []byte
	off      int
	limit    int
	closed   bool
	deadline time.Time // read deadline on this direction
}

func newBuffer(limit int) *buffer {
	b := &buffer{limit: limit}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// write appends bufs, in order, taking the lock once for all of them;
// it waits (and lets the reader in) only while the buffer is full.
func (b *buffer) write(bufs ...[]byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total int64
	for _, p := range bufs {
		for len(p) > 0 {
			if b.closed {
				return total, io.ErrClosedPipe
			}
			space := b.limit - (len(b.data) - b.off)
			if space == 0 {
				b.cond.Wait()
				continue
			}
			n := min(space, len(p))
			if b.off > 0 && len(b.data)+n > cap(b.data) {
				// Reclaim the consumed head instead of growing.
				b.data = b.data[:copy(b.data, b.data[b.off:])]
				b.off = 0
			}
			b.data = append(b.data, p[:n]...)
			p = p[n:]
			total += int64(n)
			b.cond.Broadcast()
		}
	}
	return total, nil
}

func (b *buffer) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if len(b.data) > b.off {
			n := copy(p, b.data[b.off:])
			b.off += n
			if b.off == len(b.data) {
				b.data, b.off = b.data[:0], 0
			}
			b.cond.Broadcast()
			return n, nil
		}
		if b.closed {
			return 0, io.EOF
		}
		if !b.deadline.IsZero() && !time.Now().Before(b.deadline) {
			return 0, ErrTimeout
		}
		b.cond.Wait()
	}
}

func (b *buffer) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *buffer) setDeadline(t time.Time) {
	b.mu.Lock()
	b.deadline = t
	b.mu.Unlock()
	if !t.IsZero() {
		// Wake sleepers when the deadline passes.
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		time.AfterFunc(d, func() { b.cond.Broadcast() })
	}
}

// Conn is one endpoint of a Pipe.
type Conn struct {
	r, w          *buffer
	local, remote net.Addr

	closeOnce sync.Once
}

var _ net.Conn = (*Conn)(nil)

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) { return c.r.read(p) }

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	n, err := c.w.write(p)
	return int(n), err
}

// WriteBuffers writes bufs in order as one call, the in-memory
// counterpart of a writev: every buffer is appended under one hold of
// the direction's lock, which it lets go only to wait for the reader
// when the pipe is full. bufs is only read. It returns the bytes
// written.
func (c *Conn) WriteBuffers(bufs net.Buffers) (int64, error) { return c.w.write(bufs...) }

// Buffered reports how many bytes are queued for Read. Batch-aware
// readers (the BGP session layer) use it to drain a burst of messages
// into one delivery without ever blocking for more.
func (c *Conn) Buffered() int {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	return len(c.r.data) - c.r.off
}

// Close implements net.Conn. Closing an endpoint fails further writes on
// both endpoints and drains pending reads to EOF.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.w.close()
		c.r.close()
	})
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn (read side only; writes block on
// buffer space, which close releases).
func (c *Conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.r.setDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn (no-op; writes are bounded by
// the peer draining or Close).
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
