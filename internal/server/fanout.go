package server

// This file is the fan-out pipeline: every route relayed from an
// upstream to a client passes through that client's outbound queue
// instead of being sent synchronously on the upstream's reader
// goroutine. The queue holds one thing — broadcast frames (frame.go),
// in enqueue order per shard — and a dedicated per-client
// worker drains it, shipping a drain's encode-once bytes as one write
// per session. Upstream
// readers therefore never block on a slow client; a client that cannot
// keep up shows as queue depth and backpressure counters, and past
// Quota.MaxQueueOps live routes as a shed and a replay, never as
// head-of-line blocking for its peers. Coalescing happens before the
// queue, once for all clients, when the ingest worker folds a batch to
// final state per prefix (ingest.go).

import (
	"net"
	"sync"
	"sync/atomic"

	"peering/internal/bgp"
	"peering/internal/rib"
	"peering/internal/telemetry"
	"peering/internal/wire"
)

// fanoutHighWater is the queue depth, in routes, above which an enqueue
// counts as backpressure: when a client is reported as slow. The bound
// on the queue is Quota.MaxQueueOps.
const fanoutHighWater = 32768

// outCounters are the per-queue deltas merged into Server.Stats on each
// flush.
type outCounters struct {
	backpressure uint64
	shed         uint64
	highWater    int
}

// outQueueShard is one lock's worth of a client's queue: the frames
// whose prefixes hash here, in enqueue order. Sharded on the same
// rib.PrefixShard as the Adj-RIB-In, so ingest worker i only ever takes
// queue shard i and two workers never contend on a client's queue.
type outQueueShard struct {
	mu     sync.Mutex
	frames []*broadcastFrame
	// synced[upstream] opens this shard for the upstream's live traffic.
	// It starts closed and is set by beginSync from the replay walk, so
	// a client attaching mid-ingest never receives a route both from a
	// live frame and from its own replay snapshot: until the walk has
	// covered this shard, live frames are dropped — every route they
	// carry is already installed, so the walk delivers it exactly once.
	// close drops the map, which shuts every gate for good.
	synced map[uint32]bool
}

// outQueue is one client's outbound queue of broadcast frames.
type outQueue struct {
	shards []outQueueShard
	mask   uint32
	notify chan struct{}

	// eors are End-of-RIB markers, flushed after frames. take snapshots
	// them before draining the shards, so every frame enqueued before a
	// marker is flushed no later than the marker (replayed tables land
	// before the sweep they trigger).
	eorMu sync.Mutex
	eors  []uint32

	// Cross-shard depth and pressure accounting, all lock-free so an
	// enqueue on one shard never touches another shard's lock. Depth
	// counts logical routes: a frame stands for every route it carries.
	// depthSnap is the part of depthOps held in snapshot frames, which
	// the cap leaves out.
	depthOps     atomic.Int64
	depthSnap    atomic.Int64
	depthEoRs    atomic.Int64
	highWater    atomic.Int64
	backpressure atomic.Uint64
	shed         atomic.Uint64
	overflow     atomic.Bool

	// hardLimit caps queued live routes across all shards; 0 disables.
	// Above it, live announcements are shed (withdrawals still queue —
	// they are what bounds correctness) and overflow marks the queue for
	// a full resync.
	hardLimit int
}

// newOutQueue's shards is the server's resolved count, a power of two.
func newOutQueue(hardLimit, shards int) *outQueue {
	q := &outQueue{
		shards:    make([]outQueueShard, shards),
		mask:      uint32(shards - 1),
		notify:    make(chan struct{}, 1),
		hardLimit: hardLimit,
	}
	for i := range q.shards {
		q.shards[i].synced = make(map[uint32]bool, 1)
	}
	return q
}

// beginSync opens queue shard i for an upstream's live traffic. The
// replay walk calls it while holding the RIB shard's read lock, right
// before enqueueing that shard's snapshot: ingest workers enqueue under
// the same shard's write lock, so every install is strictly before or
// strictly after the walk — before means the walk delivers the route
// and the (gated-off) live frame is dropped, after means the live
// frame sees the gate open and delivers it. Either way, exactly once.
func (q *outQueue) beginSync(i int, upstream uint32) {
	sh := &q.shards[i&int(q.mask)]
	sh.mu.Lock()
	if sh.synced != nil {
		sh.synced[upstream] = true
	}
	sh.mu.Unlock()
}

// bumpHighWater folds the current depth into the high-water mark.
func (q *outQueue) bumpHighWater(d int64) {
	for {
		hw := q.highWater.Load()
		if d <= hw || q.highWater.CompareAndSwap(hw, d) {
			return
		}
	}
}

// putFrame queues a frame on queue shard i (frames are shard-local:
// every prefix inside hashes to the same RIB/queue shard). Until the
// shard's replay walk opens the gate (beginSync) frames are dropped:
// the walk delivers the current state of every route they carry.
func (q *outQueue) putFrame(i int, f *broadcastFrame) {
	sh := &q.shards[i&int(q.mask)]
	sh.mu.Lock()
	if !sh.synced[f.upstream] {
		sh.mu.Unlock()
		return
	}
	if q.hardLimit > 0 && f.nlris > 0 && !f.snapshot &&
		q.depthOps.Load()-q.depthSnap.Load() >= int64(q.hardLimit) {
		// Laggard at its cap (this client only — every client has its
		// own queue): a frame cannot be partially shed, so drop its
		// announcements and flag the queue; the worker recovers by
		// replaying the full table into this queue as snapshot frames,
		// which the cap exempts (broadcastFrame.snapshot). Withdrawals
		// are never shed — they are what bounds correctness — so they
		// stay behind as a private withdraw-only frame, and the
		// shed-then-resync cycle cannot leave the client holding a
		// route the world withdrew.
		q.shed.Add(uint64(f.nlris))
		q.overflow.Store(true)
		if len(f.wd) == 0 {
			sh.mu.Unlock()
			q.wake()
			return
		}
		f = &broadcastFrame{skey: f.skey, upstream: f.upstream, wd: f.wd}
	}
	sh.frames = append(sh.frames, f)
	sh.mu.Unlock()
	if f.snapshot {
		q.depthSnap.Add(int64(f.nlris))
	}
	d := q.depthOps.Add(int64(f.logicalOps()))
	q.bumpHighWater(d + q.depthEoRs.Load())
	if d > fanoutHighWater {
		q.backpressure.Add(1)
	}
	q.wake()
}

// putEoR queues an End-of-RIB marker. upstream is the session-routing
// key (the upstream ID in Quagga mode, 0 in BIRD mode).
func (q *outQueue) putEoR(upstream uint32) {
	q.eorMu.Lock()
	q.eors = append(q.eors, upstream)
	q.eorMu.Unlock()
	q.bumpHighWater(q.depthOps.Load() + q.depthEoRs.Add(1))
	q.wake()
}

func (q *outQueue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// take drains everything queued, shard by shard (enqueue order within a
// shard), along with the counter deltas accumulated since the last
// take. The caller passes back the slices from its previous take (done
// with them, and cleared) so a steady drain loop recycles buffers
// instead of growing fresh ones. Taken slots are zeroed: a flushed
// frame, and the snapshot NLRI slices a joiner's frames own, must not
// stay reachable from a shard's backing array. End-of-RIB markers are
// snapshotted before the shards: a frame enqueued before a marker is
// always flushed with (or before) it, and one slipping in behind the
// marker is merely an update the client applies after its sweep —
// harmless.
func (q *outQueue) take(framesReuse []*broadcastFrame, eorsReuse []uint32) (frames []*broadcastFrame, eors []uint32, ctr outCounters, overflow bool) {
	q.eorMu.Lock()
	eors, q.eors = q.eors, eorsReuse[:0]
	q.eorMu.Unlock()
	q.depthEoRs.Add(int64(-len(eors)))

	frames = framesReuse[:0]
	for i := range q.shards {
		sh := &q.shards[i]
		sh.mu.Lock()
		frames = append(frames, sh.frames...)
		clear(sh.frames)
		sh.frames = sh.frames[:0]
		sh.mu.Unlock()
	}
	taken, snap := 0, 0
	for _, f := range frames {
		taken += f.logicalOps()
		if f.snapshot {
			snap += f.nlris
		}
	}
	q.depthOps.Add(int64(-taken))
	q.depthSnap.Add(int64(-snap))
	ctr.backpressure = q.backpressure.Swap(0)
	ctr.shed = q.shed.Swap(0)
	ctr.highWater = int(q.highWater.Swap(0))
	overflow = q.overflow.Swap(false)
	return frames, eors, ctr, overflow
}

// close shuts every gate for good and drops whatever is still queued.
// The client's worker calls it on exit, so the queue ends empty: an
// ingest worker still holding the client in its snapshot finds the gate
// closed.
func (q *outQueue) close() {
	for i := range q.shards {
		sh := &q.shards[i]
		sh.mu.Lock()
		sh.synced = nil
		sh.mu.Unlock()
	}
	q.take(nil, nil)
}

// depth reports queued routes plus End-of-RIB markers.
func (q *outQueue) depth() int {
	return int(q.depthOps.Load() + q.depthEoRs.Load())
}

// ---------------------------------------------------------------------
// Server-side enqueue and the per-client worker

// broadcast hands f to every client's queue shard si. Callers hold the
// RIB shard's lock (write for ingest and sweeps), which is what orders
// the frame against replay walks.
func (s *Server) broadcast(si int, clients []*clientConn, f *broadcastFrame) {
	f.shared = len(clients) > 1
	for _, c := range clients {
		c.out.putFrame(si, f)
	}
}

// snapFrameNLRIs caps one frame's logical size, far under any transport
// frame limit (6000 routes encode to 55–180 KB, by how many share an
// attribute set). It bounds bulk-sync chunks, withdraw sweeps and the
// ingest workers' merged batches alike.
const snapFrameNLRIs = 6000

// replaySlot keeps the last replay snapshot of one (upstream, RIB
// shard): the frames enqueueReplay built from the shard at gen. While
// the shard stays unwritten every replay queues these frames again — one
// walk, one grouping and one encode per table version, not per joiner.
// frame.go has the rules for a snapshot frame.
//
// mu orders joiners, who hold only the shard's read lock, against each
// other, and it is held across a build, so joiners arriving together
// wait for the first and ride its frames. Whoever writes the shard
// (ingestPool.process, sweepUpstream) drops the slot under the write
// lock it already holds: a table under churn keeps no image.
type replaySlot struct {
	mu     sync.Mutex
	valid  bool
	gen    uint64
	frames []*broadcastFrame
}

// drop empties the slot; queues still holding its frames flush them as
// usual. The caller holds the shard's write lock, which excludes every
// joiner and every other dropper, so valid is read unlocked: a shard
// nobody joined since its last write pays this one check. mu is for the
// scrape-time reader.
func (sl *replaySlot) drop() {
	if sl.valid {
		sl.mu.Lock()
		sl.frames, sl.valid = nil, false
		sl.mu.Unlock()
	}
}

// replaySnapshotBytes sums the wire bytes the replay slots hold now.
func (s *Server) replaySnapshotBytes() (n int) {
	for _, u := range s.Upstreams() {
		for i := range u.replay {
			sl := &u.replay[i]
			sl.mu.Lock()
			frames := sl.frames // replaced whole, never written in place
			sl.mu.Unlock()
			for _, f := range frames {
				n += f.wireLen()
			}
		}
	}
	return n
}

// enqueueReplay queues upstream u's current Adj-RIB-In for client c,
// followed by an End-of-RIB marker when eor is set. Replays flow
// through the same queue as live fan-out, so a replay can never deliver
// an announcement behind a concurrent withdrawal of the same prefix:
// everything is enqueued while holding each shard's (read) lock, so any
// ingest that supersedes a walked route also enqueues after it.
//
// Each shard's walk first opens the client's live-traffic gate for that
// shard (beginSync) under the same read lock: live frames before the
// gate opens are dropped (their routes are in the table, so this walk
// carries them), live frames after it pass. Every route therefore
// reaches the client exactly once even when it attaches mid-ingest.
//
// A shard is streamed as snapshot frames — attr-grouped chunks of at
// most snapFrameNLRIs routes — so a full-table join costs O(frames),
// not O(routes), in queue traffic. They are the shard's slot's frames
// when the slot was built from this version of the shard, and a cold
// slot is filled on the way: every client session speaks the mux's one
// codec, so every replay, a joiner's whose session is not yet
// Established included, shares them.
func (s *Server) enqueueReplay(c *clientConn, u *Upstream, eor bool) {
	skey, pathID := s.sessionKey(u)
	for i := 0; i < u.adjIn.Shards(); i++ {
		u.adjIn.ReadShard(i, func(gen uint64, t *rib.AdjRIB) {
			c.out.beginSync(i, u.cfg.ID)
			sl := &u.replay[i]
			sl.mu.Lock()
			if sl.valid && sl.gen == gen {
				s.metrics.replayHits.Inc()
			} else {
				s.metrics.replayBuilds.Inc()
				sl.valid, sl.gen, sl.frames = true, gen, snapshotFrames(t, skey, u.cfg.ID, pathID)
			}
			frames := sl.frames
			sl.mu.Unlock()
			for _, f := range frames {
				c.out.putFrame(i, f)
			}
		})
	}
	if eor {
		c.out.putEoR(skey)
	}
}

// snapshotFrames walks one shard's table into snapshot frames. One pass
// groups by interned attrs; the groups are chunked into frames. The
// NLRI slices are freshly built by WalkGrouped, so the frames own them
// outright.
func snapshotFrames(t *rib.AdjRIB, skey, upstream uint32, pathID wire.PathID) (frames []*broadcastFrame) {
	var groups []wire.AttrGroup
	count := 0
	emit := func() {
		if len(groups) > 0 {
			frames = append(frames, newSnapshotFrame(skey, upstream, groups))
			groups, count = nil, 0
		}
	}
	t.WalkGrouped(func(attrs *wire.Attrs, nlris []wire.NLRI) {
		if pathID != 0 {
			for k := range nlris {
				nlris[k].ID = pathID
			}
		}
		for len(nlris) > 0 {
			take := min(len(nlris), snapFrameNLRIs-count)
			groups = append(groups, wire.AttrGroup{Attrs: attrs, NLRIs: nlris[:take]})
			count += take
			nlris = nlris[take:]
			if count >= snapFrameNLRIs {
				emit()
			}
		}
	})
	emit()
	return frames
}

// runFanout is the per-client worker, the one goroutine that owns the
// client's outbound side: it drains the queue and writes each drain to
// the client's sessions — a stalled client blocks this goroutine, in the
// write, and no other — until the transport dies, then reaps the client.
func (s *Server) runFanout(c *clientConn) {
	d := &drain{packed: s.metrics.fanoutPacked.Tally()}
	for {
		select {
		case <-c.out.notify:
		case <-c.mux.Done():
			c.out.close()
			s.detachClient(c)
			return
		}
		var ctr outCounters
		var overflow bool
		d.frames, d.eors, ctr, overflow = c.out.take(d.frames, d.eors)
		s.flushFanout(c, d, ctr)
		if overflow {
			// Announcements were shed while this client lagged: queue a
			// replay of the Adj-RIB-Ins behind what is left (quota.go).
			s.resyncClient(c)
		}
	}
}

// drain is a flusher's state, reused from drain to drain: what it took,
// the write it is building (at most maxBatch frames, which bounds what
// it, the session and the tunnel keep between writes) and what it
// counted, which reaches the shared instruments once per drain.
type drain struct {
	frames, batch                  []*broadcastFrame
	eors                           []uint32
	bufs                           net.Buffers
	updates                        int
	packed                         *telemetry.Tally
	sent, relayed, shared, private uint64
}

const maxBatch = 256

// flushFanout sends one drain: each session's frames, in drain order,
// as one write of their encode-once bytes (per maxBatch frames), then
// the End-of-RIB markers taken with them. A frame whose session is down
// is dropped: its Established replay (plus End-of-RIB) rebuilds the
// client's view, so nothing is lost, only deferred. Sent slots are
// cleared (no pins).
func (s *Server) flushFanout(c *clientConn, d *drain, ctr outCounters) {
	for i, f := range d.frames {
		if f == nil {
			continue // sent with an earlier frame's session
		}
		skey, sess := f.skey, c.session(f.skey)
		for k, g := range d.frames[i:] {
			if g == nil || g.skey != skey {
				continue
			}
			d.frames[i+k] = nil
			if sess == nil {
				continue
			}
			if enc, counts := g.encoded(s.clientOpts); len(counts) > 0 {
				d.batch, d.bufs, d.updates = append(d.batch, g), append(d.bufs, enc), d.updates+len(counts)
				if len(d.batch) == maxBatch {
					d.send(sess)
				}
			}
		}
		d.send(sess)
	}
	for _, skey := range d.eors {
		if sess := c.session(skey); sess != nil && sess.Send(&wire.Update{}) == nil {
			d.sent++ // Send refuses a session that is not Established
		}
	}
	m := s.metrics
	m.fanoutUpdates.Add(d.sent)
	m.fanoutRelayed.Add(d.relayed)
	m.fanoutFrameShared.Add(d.shared)
	m.fanoutFramePrivate.Add(d.private)
	d.packed.Merge()
	d.sent, d.relayed, d.shared, d.private = 0, 0, 0, 0
	m.fanoutBackpressure.Add(ctr.backpressure)
	if ctr.shed > 0 {
		m.quotaShed.Add(ctr.shed)
	}
	m.fanoutHighWater.Max(float64(ctr.highWater))
}

// send writes the pending batch to sess as one SendEncoded and counts
// it once the transport has it (counts are fixed with bytes, frame.go).
func (d *drain) send(sess *bgp.Session) {
	if len(d.batch) > 0 && sess.SendEncoded(d.bufs, d.updates) == nil {
		for _, f := range d.batch {
			sent := 0
			for _, n := range f.counts {
				d.packed.Observe(float64(n))
				sent += n
			}
			if f.shared {
				d.shared++
			} else {
				d.private++
			}
			d.relayed += uint64(sent - len(f.wd)) // the announcements that encoded
		}
		d.sent += uint64(d.updates)
	}
	clear(d.batch)
	clear(d.bufs)
	d.batch, d.bufs, d.updates = d.batch[:0], d.bufs[:0], 0
}
