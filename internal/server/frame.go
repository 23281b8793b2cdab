package server

// broadcastFrame is the one thing a client queue holds: an ingest batch
// (a single UPDATE is a batch of one), a bulk-sync chunk or a withdraw
// sweep, packed as logical withdrawals plus attr-grouped announcements,
// referenced by every in-sync client's queue and encoded into wire
// bytes exactly once, lazily, by the first client worker that flushes
// it. A mux has one client codec (Server.clientOpts, fixed by its mode;
// a session that negotiates any other is refused as it comes up), so a
// frame has exactly one encoding and no flusher packs one of its own.
// An UPDATE of the frame that does not encode is left out, and the
// rest of the frame goes.
//
// A frame is a value: nothing counts who holds it. Its logical content
// and its encoded bytes are plain GC memory, immutable once published
// (by putFrame, and for the bytes and their counts by f.mu). A flusher
// reaches the bytes only through the frame it took from its queue and
// holds that pointer across the synchronous SendEncoded that writes its
// drain, so no write outlives its bytes; the frame is garbage once no
// queue, drain or replay slot lists it.
//
// A replay slot (replaySlot, fanout.go) keeps the snapshot frames of one
// (upstream, RIB shard) so later joiners ride the same frames and bytes;
// every snapshot frame is a slot's. Once encoded, a snapshot frame drops
// its logical groups and its spare capacity, so at rest a slot holds
// wire bytes only.
//
// Lock order: under a RIB shard lock, a slot mutex or a queue-shard
// mutex, never both; f.mu alone.
import (
	"sync"

	"peering/internal/wire"
)

// batchEntry is one prefix's final state within an ingest batch: nil
// attrs means withdrawn. Batches fold to final state before building a
// frame, so a frame never carries both an announcement and a
// withdrawal for the same prefix (a frame encodes its withdrawals
// first, which would otherwise reorder announce-then-withdraw
// sequences).
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
	// for a replay slot; a frame made for one queue (a shed remainder, a
	// lone client) is counted private when flushed.
	shared bool
	// snapshot marks a replay's chunk of the table, a replay slot's frame:
	// bounded by the table, not by the client's slowness, and the recovery
	// from a shed (which shedding it would undo) — the queue cap neither
	// counts nor sheds it.
	snapshot bool

	// The encoding, built under mu by the first flusher.
	mu      sync.Mutex
	enc     []byte
	counts  []int // NLRIs (reach+withdrawn) per encoded UPDATE
	encDone bool
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
	f := &broadcastFrame{skey: skey, upstream: upstream, groups: groups, shared: true, snapshot: true}
	for _, g := range groups {
		f.nlris += len(g.NLRIs)
	}
	return f
}

// logicalOps is the frame's contribution to queue depth: one op per
// logical route it carries.
func (f *broadcastFrame) logicalOps() int { return f.nlris + len(f.wd) }

// wireLen reports the size of the shared encoding, 0 before the first
// flusher has built it.
func (f *broadcastFrame) wireLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.enc)
}

// encoded returns the frame's encoding under the mux's client codec
// opts, building it on first call; the caller must not modify the bytes.
func (f *broadcastFrame) encoded(opts wire.Options) (enc []byte, counts []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.encDone {
		f.encDone = true
		f.encode(opts)
	}
	return f.enc, f.counts
}

// attrsLenGuess is what encode reserves for one UPDATE's path
// attributes: ORIGIN, NEXT_HOP, an AS_PATH of a few hops and a
// community or two.
const attrsLenGuess = 64

// encode appends every UPDATE of the logical content into one buffer,
// leaving out one that does not encode. Called with mu held, once.
func (f *broadcastFrame) encode(opts wire.Options) {
	// Size estimate: 9 bytes bound an IPv4 NLRI with its path ID, and
	// every UPDATE — one per group and one of withdrawals, short of
	// splits — pays a header, two length fields and one attribute block.
	// A miss just grows the buffer (never truncates).
	est := f.logicalOps()*9 + (len(f.groups)+1)*(wire.HeaderLen+4+attrsLenGuess)
	b, counts := wire.AppendGroups(make([]byte, 0, est), f.wd, f.groups, opts, nil)
	if f.snapshot {
		// A slot keeps these bytes for as long as the shard is unwritten:
		// hold the bytes sent, no spare room and no logical content.
		b, f.groups = append(make([]byte, 0, len(b)), b...), nil
	}
	f.enc, f.counts = b, counts
}
