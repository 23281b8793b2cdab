package bufpool

import "sync/atomic"

// Frame is a reference-counted pooled buffer for bytes shared by many
// consumers. The creator starts with one reference; each additional
// holder calls Retain before the bytes escape to it and Release when
// done. When the count reaches zero the backing buffer returns to its
// size class.
//
// The pool reference is weak in the usual bufpool sense: a Frame that
// is never fully released is simply collected by the GC — a missed
// recycle, never a leak or a use-after-free.
//
// Nothing in the mux uses it any more (its fan-out bytes are GC memory);
// bench/layers.go still prices it and it retires with those rows.
type Frame struct {
	b    []byte
	refs atomic.Int32
}

// NewFrame wraps b (typically obtained from Get) in a frame holding
// one reference. b must not be used directly by the caller afterwards.
func NewFrame(b []byte) *Frame {
	f := &Frame{b: b}
	f.refs.Store(1)
	return f
}

// Retain adds a reference. Call before handing the frame to another
// goroutine or queue.
func (f *Frame) Retain() { f.refs.Add(1) }

// Release drops one reference, returning the buffer to its pool when
// the last holder lets go. The caller must not touch Bytes afterwards.
func (f *Frame) Release() {
	if f.refs.Add(-1) == 0 {
		b := f.b
		f.b = nil
		Put(b)
	}
}

// Bytes returns the framed bytes. Valid only while the caller holds a
// reference; holders must treat the contents as immutable.
func (f *Frame) Bytes() []byte { return f.b }

// Len reports the framed byte count.
func (f *Frame) Len() int { return len(f.b) }
