package server

// broadcastFrame is the one thing a client queue holds: an ingest batch
// (a single UPDATE is a batch of one), a bulk-sync chunk or a withdraw
// sweep, packed as logical withdrawals plus attr-grouped announcements,
// referenced by every in-sync client's queue and encoded into wire
// bytes exactly once, lazily, by the first client worker that flushes
// it. Clients whose sessions negotiated different codec options than
// the shared encoding fall back to a private pack of the same logical
// content.
//
// Lifetime: the builder sets refs to the number of queues that will
// hold the frame before enqueueing; each queue's flush (or shed, gate
// drop, failed-session skip, or close) calls release exactly once. The
// encoded bytes live in a bufpool.Frame with one base reference owned
// by this struct and dropped with the last reference: a flusher writes
// the bytes to its session before it releases its own, so the buffer
// never recycles under a write. The logical NLRI slices are plain
// GC-managed memory, shared by every queue that holds the frame, so
// they must never come from a pool.
//
// Slot-held frames. A replay slot (replaySlot, fanout.go) keeps the
// snapshot frames of one (upstream, RIB shard) so that later joiners
// ride the same frames, and the same bytes, instead of walking and
// encoding the shard again. The rules that differ for such a frame:
//
//   - The slot owns one reference of its own in refs, from pin until
//     the slot is reset, and joiners take theirs (join) under the slot's
//     mutex while the slot still lists the frame — so refs is at least
//     one whenever a joiner adds to it, and no Add can bring a frame
//     back from zero.
//   - live keeps meaning "frames some client queue references": the
//     slot's reference is not counted, join counts the frame on live
//     when it gives it its first queue reference (never by running
//     retain again), and the last queue's release takes it off. With a
//     warm slot and idle queues Server.liveFrames reads zero while
//     bufpool.LiveFrames() reads the buffers the slots hold; after
//     Server.Close both read zero.
//   - It is encoded under the options its slot was built for and no
//     others (encOpts, fixed by pin), and once encoded it drops its
//     logical groups: at rest a slot holds wire bytes only. A flusher
//     whose session has other options therefore has nothing to pack
//     from and skips the frame; enqueueReplay never hands a slot's
//     frames to such a client, so this is only a session replaced
//     between the enqueue and the flush, whose Established replay
//     delivers the table anyway.
//   - Its flushes count as shared.
//
// Lock order: RIB shard lock → slot mutex → queue-shard mutex → f.mu.
import (
	"sync"
	"sync/atomic"

	"peering/internal/bufpool"
	"peering/internal/wire"
)

// batchEntry is one prefix's final state within an ingest batch: nil
// attrs means withdrawn. Batches fold to final state before building a
// frame, so a frame never carries both an announcement and a
// withdrawal for the same prefix (PackGrouped emits withdrawals first,
// which would otherwise reorder announce-then-withdraw sequences).
type batchEntry struct {
	nlri  wire.NLRI
	attrs *wire.Attrs
}

type broadcastFrame struct {
	// skey routes the frame to a client session (upstream ID in Quagga
	// mode, 0 in BIRD mode); upstream is the originating upstream's ID,
	// the key of the queue's sync gate.
	skey     uint32
	upstream uint32

	wd     []wire.NLRI       // withdrawn, PathID-stamped
	groups []wire.AttrGroup  // announcements by shared attrs, PathID-stamped
	nlris  int               // announced NLRI count across groups
	group1 [1]wire.AttrGroup // backs groups for the common one-group frame

	// shared records that the frame was built for two or more queues or
	// for a replay slot; a frame made for one queue (a private snapshot,
	// a shed remainder, a lone client) is counted private when flushed.
	shared bool
	// snapshot marks a replay's chunk of the table: bounded by the table,
	// not by the client's slowness, and the recovery from a shed (which
	// shedding it would undo) — the queue cap neither counts nor sheds it.
	snapshot bool
	// cached marks a slot-held frame (see the header); set by pin before
	// the frame is published, never changed. queued is the part of refs
	// that client queues hold, kept for cached frames only.
	cached bool
	refs   atomic.Int32
	queued atomic.Int32
	// live is the owning server's count of frames some queue still
	// references (debug accounting: it is back to zero once every queue
	// has flushed or dropped what it held).
	live *atomic.Int64

	// Lazy shared encoding, built under mu by the first flusher and
	// keyed to the wire.Options it encoded under.
	mu      sync.Mutex
	encOpts wire.Options
	enc     *bufpool.Frame
	counts  []int // NLRIs (reach+withdrawn) per encoded UPDATE
	encDone bool
	encErr  bool
}

// newBroadcastFrame builds a frame from a batch's folded final state.
// The entry NLRIs are re-stamped with pathID (BIRD mode's per-upstream
// ADD-PATH ID; zero in Quagga mode). entries is not retained. Runs of
// one attribute set are the norm, so the last group is tried first and
// the attrs index exists only once a frame holds a second group.
func newBroadcastFrame(skey, upstream uint32, pathID wire.PathID, entries []batchEntry) *broadcastFrame {
	f := &broadcastFrame{skey: skey, upstream: upstream}
	f.groups = f.group1[:0]
	var gidx map[*wire.Attrs]int
	for _, e := range entries {
		n := e.nlri
		n.ID = pathID
		if e.attrs == nil {
			f.wd = append(f.wd, n)
			continue
		}
		f.nlris++
		gi := len(f.groups) - 1
		if gi < 0 || f.groups[gi].Attrs != e.attrs {
			if gidx == nil && gi >= 0 {
				gidx = map[*wire.Attrs]int{f.groups[0].Attrs: 0}
			}
			var ok bool
			if gi, ok = gidx[e.attrs]; !ok {
				gi = len(f.groups)
				f.groups = append(f.groups, wire.AttrGroup{Attrs: e.attrs})
				if gidx != nil {
					gidx[e.attrs] = gi
				}
			}
		}
		f.groups[gi].NLRIs = append(f.groups[gi].NLRIs, n)
	}
	return f
}

// newSnapshotFrame wraps already-grouped announcements (a bulk-sync
// chunk gathered under a RIB shard's read lock) in a frame. The group
// NLRI slices are retained and must be owned by the frame from here on.
func newSnapshotFrame(skey, upstream uint32, groups []wire.AttrGroup) *broadcastFrame {
	f := &broadcastFrame{skey: skey, upstream: upstream, groups: groups, snapshot: true}
	for _, g := range groups {
		f.nlris += len(g.NLRIs)
	}
	return f
}

// logicalOps is the frame's contribution to queue depth: one op per
// logical route it carries.
func (f *broadcastFrame) logicalOps() int { return f.nlris + len(f.wd) }

// retain adds n (≥ 1) queue references before the frame is enqueued
// and counts the frame on live until the last of them is released.
func (f *broadcastFrame) retain(n int, live *atomic.Int64) {
	f.live = live
	live.Add(1)
	f.shared = n > 1
	f.refs.Add(int32(n))
}

// pin makes f a slot-held frame with the slot's reference as its first:
// to be encoded under opts only, and counted on live while some queue
// holds it.
func (f *broadcastFrame) pin(opts wire.Options, live *atomic.Int64) {
	f.cached, f.shared, f.encOpts, f.live = true, true, opts, live
	f.refs.Store(1)
}

// join adds one queue reference to a slot-held frame. The caller holds
// the slot's mutex and found f in the slot.
func (f *broadcastFrame) join() {
	f.refs.Add(1)
	if f.queued.Add(1) == 1 {
		f.live.Add(1)
	}
}

// release drops one queue reference.
func (f *broadcastFrame) release() {
	if f.cached {
		if f.queued.Add(-1) == 0 {
			f.live.Add(-1)
		}
		f.unref()
	} else if f.unref() {
		f.live.Add(-1)
	}
}

// unref drops one reference — release for a queue, the slot directly
// for its own — and reports whether it was the last, which releases the
// shared encoding so its buffer can recycle.
func (f *broadcastFrame) unref() bool {
	if f.refs.Add(-1) != 0 {
		return false
	}
	f.mu.Lock()
	enc := f.enc
	f.enc = nil
	f.mu.Unlock()
	if enc != nil {
		enc.Release()
	}
	return true
}

// wireLen reports the size of the shared encoding, 0 before the first
// flusher has built it.
func (f *broadcastFrame) wireLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.enc == nil {
		return 0
	}
	return f.enc.Len()
}

// encoded returns the shared encoding for opts, building it on first
// call; the bytes stay valid until the caller releases its queue
// reference. ok is false when the frame was already encoded under
// different options (or failed to encode): the caller packs privately
// from the logical content instead — unless the frame is slot-held,
// which has none to pack from and is never encoded under options other
// than its slot's.
func (f *broadcastFrame) encoded(opts wire.Options) (enc []byte, counts []int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cached && opts != f.encOpts {
		return nil, nil, false
	}
	if !f.encDone {
		f.encDone = true
		f.encOpts = opts
		f.encode(opts)
		if f.cached {
			f.groups = nil
		}
	}
	if f.encErr || f.enc == nil || f.encOpts != opts {
		return nil, nil, false
	}
	return f.enc.Bytes(), f.counts, true
}

// attrsLenGuess is what encode reserves for one UPDATE's path
// attributes: ORIGIN, NEXT_HOP, an AS_PATH of a few hops and a
// community or two.
const attrsLenGuess = 64

// encode packs the logical content and appends every resulting UPDATE
// into one buffer. Called with mu held, once.
func (f *broadcastFrame) encode(opts wire.Options) {
	upds := wire.PackGrouped(f.wd, f.groups, opts)
	if len(upds) == 0 {
		f.encErr = true
		return
	}
	// Size estimate: 9 bytes bound an IPv4 NLRI with its path ID, and
	// every UPDATE pays a header, two length fields and one attribute
	// block. A miss just grows the buffer (never truncates). Only small
	// frames land inside a bufpool class and recycle: a full snapshot
	// frame of a table with 2–3 NLRIs per attribute set is ≈ 30 B per
	// route, 180 KB, plain GC memory.
	est := f.logicalOps()*9 + len(upds)*(wire.HeaderLen+4+attrsLenGuess)
	b := bufpool.Get(est)[:0]
	counts := make([]int, 0, len(upds))
	for _, upd := range upds {
		var err error
		b, err = wire.AppendMessage(b, upd, opts)
		if err != nil {
			bufpool.Put(b)
			f.encErr = true
			return
		}
		counts = append(counts, len(upd.Reach)+len(upd.Withdrawn))
	}
	if f.cached && cap(b) > len(b) {
		// A slot keeps these bytes for as long as the shard is unwritten:
		// hold the bytes sent and no spare room.
		exact := append(make([]byte, 0, len(b)), b...)
		bufpool.Put(b)
		b = exact
	}
	f.enc = bufpool.NewFrame(b)
	f.counts = counts
}
