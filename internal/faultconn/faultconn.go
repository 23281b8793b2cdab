// Package faultconn wraps any net.Conn with scriptable fault injection
// for chaos testing: one-way latency, partitions that silently blackhole
// traffic, byte-count-triggered drops, and hard resets. Faults are
// applied per Write/WriteBuffers/Read call, never mid-call, so message
// framing on the wrapped transport stays aligned — a partition eats
// whole frames, not half a header, and a vectored write (a tunnel's
// frames for one drain) is lost or delivered whole.
package faultconn

import (
	"errors"
	"net"
	"slices"
	"sync"
	"time"

	"peering/internal/bufconn"
	"peering/internal/clock"
)

// ErrReset is returned from Read and Write after Reset.
var ErrReset = errors.New("faultconn: connection reset by fault injection")

// Stats counts traffic through one wrapped endpoint.
type Stats struct {
	// BytesRead and BytesWritten count bytes actually passed through.
	BytesRead    int64
	BytesWritten int64
	// Writes counts write calls (Write or WriteBuffers) passed through.
	Writes int64
	// WritesDropped counts whole write calls (Write or WriteBuffers)
	// blackholed by a partition or drop trigger.
	WritesDropped int64
	// BytesDropped counts the payload bytes of those writes.
	BytesDropped int64
	// WritesCorrupted counts write calls whose payload had a byte
	// flipped by CorruptNext.
	WritesCorrupted int64
}

// Conn wraps an inner net.Conn with fault injection. All fault switches
// may be flipped concurrently with I/O.
type Conn struct {
	inner net.Conn
	clk   clock.Clock
	// done is closed on Close/Reset so writers parked in a stall or an
	// injected latency delay wake immediately instead of waiting out the
	// clock — on a virtual clock nobody may ever advance again after
	// shutdown.
	done      chan struct{}
	closeOnce sync.Once

	mu          sync.Mutex
	partitioned bool
	dropAfter   int64         // pass this many more written bytes, then drop; -1 = off
	corruptNext int64         // flip one byte in this many more writes
	stalled     chan struct{} // non-nil while writes must block; closed to release
	latency     time.Duration
	reset       bool
	stats       Stats
}

var _ net.Conn = (*Conn)(nil)

// Wrap returns conn with fault injection layered on top. clk paces
// injected latency; nil means the system clock.
func Wrap(conn net.Conn, clk clock.Clock) *Conn {
	if clk == nil {
		clk = clock.System
	}
	return &Conn{inner: conn, clk: clk, done: make(chan struct{}), dropAfter: -1}
}

// Pipe returns a connected in-memory pair with fault injection on both
// endpoints. Faults are per-endpoint: partitioning one end silences only
// that end's writes; use PartitionBoth for a symmetric cut.
func Pipe(clk clock.Clock) (*Conn, *Conn) {
	a, b := bufconn.Pipe()
	return Wrap(a, clk), Wrap(b, clk)
}

// PartitionBoth cuts both directions of a wrapped pair.
func PartitionBoth(a, b *Conn) {
	a.Partition()
	b.Partition()
}

// HealBoth restores both directions of a wrapped pair.
func HealBoth(a, b *Conn) {
	a.Heal()
	b.Heal()
}

// Partition silently discards all subsequent writes from this endpoint.
// Reads are unaffected (and thus block once in-flight data drains),
// mimicking a network cut rather than a connection close.
func (c *Conn) Partition() {
	c.mu.Lock()
	c.partitioned = true
	c.mu.Unlock()
}

// Heal ends a partition; subsequent writes flow again. Writes discarded
// during the partition stay lost.
func (c *Conn) Heal() {
	c.mu.Lock()
	c.partitioned = false
	c.mu.Unlock()
}

// DropAfter lets n more written bytes through, then blackholes every
// later Write call in full (the call that crosses the threshold still
// passes whole, keeping frames intact). A negative n disables the
// trigger.
func (c *Conn) DropAfter(n int64) {
	c.mu.Lock()
	c.dropAfter = n
	c.mu.Unlock()
}

// CorruptNext flips one byte in the middle of each of the next n Write
// payloads — framing survives (lengths are untouched), the content
// inside does not, which is exactly the shape of damage RFC 7606
// handling must contain. Zero disables; the trigger rearms per call.
func (c *Conn) CorruptNext(n int64) {
	c.mu.Lock()
	c.corruptNext = n
	c.mu.Unlock()
}

// Stall blocks every subsequent Write until Unstall (or Reset or Close,
// which fail the parked writes). Unlike
// a partition, nothing is lost — the writer goroutine just stops making
// progress, like a zero-window peer or a frozen process.
func (c *Conn) Stall() {
	c.mu.Lock()
	if c.stalled == nil {
		c.stalled = make(chan struct{})
	}
	c.mu.Unlock()
}

// Unstall releases writers blocked by Stall; their writes proceed.
func (c *Conn) Unstall() {
	c.mu.Lock()
	if c.stalled != nil {
		close(c.stalled)
		c.stalled = nil
	}
	c.mu.Unlock()
}

// SetLatency delays each subsequent Write by d on the wrapping clock.
func (c *Conn) SetLatency(d time.Duration) {
	c.mu.Lock()
	c.latency = d
	c.mu.Unlock()
}

// Reset simulates a connection reset: the inner conn is closed and all
// further I/O on this endpoint fails with ErrReset.
func (c *Conn) Reset() {
	c.mu.Lock()
	c.reset = true
	if c.stalled != nil {
		close(c.stalled) // release stalled writers into the reset error
		c.stalled = nil
	}
	c.mu.Unlock()
	c.closeOnce.Do(func() { close(c.done) })
	c.inner.Close()
}

// Stats snapshots the endpoint's counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	c.mu.Lock()
	c.stats.BytesRead += int64(n)
	reset := c.reset
	c.mu.Unlock()
	if reset {
		return n, ErrReset
	}
	return n, err
}

// Write implements net.Conn. Depending on the scripted faults the call
// may be delayed, silently discarded (reporting success, like a lost
// packet), or failed.
func (c *Conn) Write(p []byte) (int, error) {
	drop, corrupt, err := c.fault(int64(len(p)))
	if err != nil {
		return 0, err
	}
	if drop {
		return len(p), nil
	}
	if corrupt {
		p = flipped(p)
	}
	n, err := c.inner.Write(p)
	c.wrote(int64(n))
	return n, err
}

// WriteBuffers writes bufs in order as one call, and the faults treat
// it as one Write of all their bytes: decided once, for the whole call,
// so a partition or a drop trigger eats every buffer of it and never
// some, a stall parks all of it, latency is waited once and CorruptNext
// spends one of its writes on it. The call goes to the wrapped conn's
// own WriteBuffers when it has one (bufconn), else as a net.Buffers
// write. bufs is only read: a corrupted call is sent from a flattened
// copy.
func (c *Conn) WriteBuffers(bufs net.Buffers) (int64, error) {
	var total int64
	for _, b := range bufs {
		total += int64(len(b))
	}
	drop, corrupt, err := c.fault(total)
	if err != nil {
		return 0, err
	}
	if drop {
		return total, nil
	}
	var n int64
	if corrupt {
		var nn int
		nn, err = c.inner.Write(flipped(bufs...))
		n = int64(nn)
	} else if bw, ok := c.inner.(interface {
		WriteBuffers(net.Buffers) (int64, error)
	}); ok {
		n, err = bw.WriteBuffers(bufs)
	} else {
		v := append(net.Buffers(nil), bufs...) // WriteTo consumes its receiver
		n, err = v.WriteTo(c.inner)
	}
	c.wrote(n)
	return n, err
}

// fault applies the scripted faults to one write call of n bytes, once
// for the whole call: it parks the caller while stalled, reports a reset
// or a close, decides whether the call is dropped (counted here) or
// corrupted, and waits out the latency.
func (c *Conn) fault(n int64) (drop, corrupt bool, err error) {
	c.mu.Lock()
	for c.stalled != nil {
		ch := c.stalled
		c.mu.Unlock()
		select {
		case <-ch: // parked until Unstall or Reset
			c.mu.Lock()
		case <-c.done: // or Close, as on a real transport
			c.mu.Lock()
			if !c.reset {
				c.mu.Unlock()
				return false, false, net.ErrClosed
			}
		}
	}
	if c.reset {
		c.mu.Unlock()
		return false, false, ErrReset
	}
	drop = c.partitioned
	if !drop && c.dropAfter >= 0 {
		if c.dropAfter == 0 {
			drop = true
		} else {
			// The crossing write passes whole so frame boundaries hold.
			c.dropAfter = max(c.dropAfter-n, 0)
		}
	}
	if drop {
		c.stats.WritesDropped++
		c.stats.BytesDropped += n
		c.mu.Unlock()
		return true, false, nil
	}
	if c.corruptNext > 0 && n > 0 {
		c.corruptNext--
		c.stats.WritesCorrupted++
		corrupt = true
	}
	latency := c.latency
	c.mu.Unlock()
	if latency > 0 {
		select {
		case <-c.clk.After(latency):
		case <-c.done:
			return false, false, net.ErrClosed
		}
	}
	return false, corrupt, nil
}

// wrote counts one write call of n bytes passed through to the wrapped
// conn.
func (c *Conn) wrote(n int64) {
	c.mu.Lock()
	c.stats.Writes++
	c.stats.BytesWritten += n
	c.mu.Unlock()
}

// flipped returns the bytes of bufs in one copy with its middle byte
// inverted: the caller's buffers are not ours to damage.
func flipped(bufs ...[]byte) []byte {
	q := slices.Concat(bufs...)
	q[len(q)/2] ^= 0xff
	return q
}

// Close implements net.Conn. Writers parked in a stall or an injected
// latency delay are released with an error.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return c.inner.Close()
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
