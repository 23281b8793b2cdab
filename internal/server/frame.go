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
// by this struct and dropped with the last queue reference: a flusher
// writes the bytes to its session before it releases its own, so the
// buffer never recycles under a write. The logical NLRI slices are
// plain GC-managed memory, shared by every queue that holds the frame,
// so they must never come from a pool.
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

	// shared records that the frame was built for two or more queues;
	// a frame made for one (a joiner's snapshot, a shed remainder, a
	// lone client) is counted private when flushed.
	shared bool
	// snapshot marks a replay's chunk of the table: bounded by the table,
	// not by the client's slowness, and the recovery from a shed (which
	// shedding it would undo) — the queue cap neither counts nor sheds it.
	snapshot bool
	refs     atomic.Int32
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

// release drops one queue reference; the last one releases the shared
// encoding so its buffer can recycle.
func (f *broadcastFrame) release() {
	if f.refs.Add(-1) != 0 {
		return
	}
	f.live.Add(-1)
	f.mu.Lock()
	enc := f.enc
	f.enc = nil
	f.mu.Unlock()
	if enc != nil {
		enc.Release()
	}
}

// encoded returns the shared encoding for opts, building it on first
// call; the bytes stay valid until the caller releases its queue
// reference. ok is false when the frame was already encoded under
// different options (or failed to encode): the caller packs privately
// from the logical content instead.
func (f *broadcastFrame) encoded(opts wire.Options) (enc []byte, counts []int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.encDone {
		f.encDone = true
		f.encOpts = opts
		f.encode(opts)
	}
	if f.encErr || f.enc == nil || f.encOpts != opts {
		return nil, nil, false
	}
	return f.enc.Bytes(), f.counts, true
}

// encode packs the logical content and appends every resulting UPDATE
// into one pooled buffer. Called with mu held, once.
func (f *broadcastFrame) encode(opts wire.Options) {
	upds := wire.PackGrouped(f.wd, f.groups, opts)
	if len(upds) == 0 {
		f.encErr = true
		return
	}
	// Size estimate: NLRI bytes dominate; leave headroom for one attr
	// block per group. A miss just grows the buffer past its class (it
	// is then GC'd instead of recycled — never truncated).
	est := (f.logicalOps())*10 + len(f.groups)*192 + len(upds)*wire.HeaderLen
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
	f.enc = bufpool.NewFrame(b)
	f.counts = counts
}
