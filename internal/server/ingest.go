package server

// Sharded ingest pipeline. Upstream readers no longer mutate the
// Adj-RIB-In and walk the client list inline: each UPDATE is split by
// prefix-hash shard and handed to the worker owning that shard, so a
// full-table flood from one peer spreads across workers instead of
// serializing on one table lock, and two peers updating different
// prefixes never contend at all. One worker per shard gives every
// (upstream, prefix) a single writer, which is what keeps relay
// ordering intact without a global lock:
//
//   - a worker installs and enqueues under one hold of the shard's
//     write lock, so version k is enqueued to every client before k+1
//     is installed and no client queue ever sees stale-after-fresh;
//   - a replay walk holds the shard's read lock while it enqueues, so
//     relative to any one install-and-enqueue it is strictly before
//     (the walk carries the route; the live enqueue was dropped by the
//     client's closed sync gate, see outQueue.beginSync) or strictly
//     after (the gate is open and the live enqueue delivers it) —
//     exactly one of the two reaches the client;
//   - the worker reads the client list while it holds the shard lock:
//     a client that registers later replays under that same lock, so
//     its walk covers the routes its absence from the list skipped.
//
// barrier() flushes the pipeline: operations that must observe every
// in-flight update (stale sweeps, teardown withdrawals, archive
// snapshots) fence all workers first.

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"peering/internal/policy/compiled"
	"peering/internal/rib"
	"peering/internal/wire"
)

// ingestChanDepth is the per-shard channel buffer. Deep enough that a
// bursty reader rarely blocks, shallow enough that a fence drains in
// microseconds.
const ingestChanDepth = 256

// ingestSeg is one run of same-kind operations inside an op: nil attrs
// marks withdrawals, anything else announcements under one interned
// attribute set. Segments preserve source-update order; the worker
// folds them to final state per prefix before the table pass and the
// fan-out frame.
type ingestSeg struct {
	attrs *wire.Attrs
	nlris []wire.NLRI
}

// ingestOp is one shard's slice of a run of upstream UPDATEs — a single
// UPDATE is a run of one. The NLRI slices alias the decoded messages
// (fresh per decode, owned by the op from dispatch on) or a partition
// buffer owned by this op; attrs is interned and immutable.
type ingestOp struct {
	u    *Upstream
	segs []ingestSeg
	// nlris counts NLRIs across segs: the bound on worker-side merging.
	nlris int
	// peerAS/peerID snapshot the session identity at receive time, so
	// the stored routes are stamped even if the session dies before the
	// worker runs.
	peerAS  uint32
	peerID  netip.Addr
	learned time.Time
	// fence, when non-nil, marks a barrier op: the worker signals and
	// processes nothing.
	fence *sync.WaitGroup
}

// add appends a run to the op, extending the last segment when it
// shares the run's attribute set. A new segment aliases nlris with its
// capacity clipped, so extending it later copies instead of writing
// into the decoded message.
func (op *ingestOp) add(attrs *wire.Attrs, nlris []wire.NLRI) {
	op.nlris += len(nlris)
	if k := len(op.segs) - 1; k >= 0 && op.segs[k].attrs == attrs {
		op.segs[k].nlris = append(op.segs[k].nlris, nlris...)
		return
	}
	op.segs = append(op.segs, ingestSeg{attrs: attrs, nlris: nlris[:len(nlris):len(nlris)]})
}

// ingestPool runs one worker per shard. The shard of a prefix here is
// the same rib.PrefixShard the tables use, so a worker only ever takes
// its own shard's locks.
type ingestPool struct {
	srv   *Server
	chans []chan *ingestOp
	mask  uint32
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
	// gate serializes shutdown against in-flight sends: senders hold
	// the read side, close flips stopped under the write side, so once
	// close holds the lock no new op can enter a channel and the
	// workers' final drain is complete.
	gate    sync.RWMutex
	stopped bool
	// queued counts operations in the shard channels (scrape-time
	// visibility into pipeline lag).
	queued atomic.Int64

	ops sync.Pool // *ingestOp
}

func newIngestPool(s *Server, shards int) *ingestPool {
	p := &ingestPool{
		srv:   s,
		chans: make([]chan *ingestOp, shards),
		mask:  uint32(shards - 1),
		stop:  make(chan struct{}),
	}
	p.ops.New = func() any { return new(ingestOp) }
	for i := range p.chans {
		p.chans[i] = make(chan *ingestOp, ingestChanDepth)
		p.wg.Add(1)
		go p.run(i)
	}
	return p
}

func (p *ingestPool) close() {
	p.once.Do(func() {
		p.gate.Lock() // waits out every in-flight send
		p.stopped = true
		p.gate.Unlock()
		close(p.stop)
	})
	p.wg.Wait()
}

func (p *ingestPool) run(i int) {
	defer p.wg.Done()
	ch := p.chans[i]
	// entries is the fold scratch, reused across ops: this worker is the
	// shard's only writer and frames copy what they keep.
	var entries []batchEntry
	// next is an op taken off the channel by merge that could not join
	// the batch before it; it runs on the following turn.
	var next *ingestOp
	for {
		op := next
		next = nil
		if op == nil {
			select {
			case op = <-ch:
				p.queued.Add(-1)
			case <-p.stop:
				// No sender can enter after close set stopped, so one final
				// drain empties the channel (fences included).
				for {
					select {
					case op := <-ch:
						p.queued.Add(-1)
						if op.fence != nil {
							op.fence.Done()
						}
					default:
						return
					}
				}
			}
		}
		if op.fence != nil {
			op.fence.Done()
			continue
		}
		next = p.merge(op, ch)
		entries = p.process(op, i, entries)
	}
}

// merge folds the ops already queued behind op into it, so that a
// worker which has fallen behind packs what piled up into one table
// pass and one frame — natural batching: no timer, nothing to tune, the
// same greediness bound the session reader uses (only what is already
// there). Only ops of the same upstream and session identity join, a
// fence is never overtaken, and the batch stops growing at
// snapFrameNLRIs. The op that ended the run, if any, is returned
// unprocessed.
func (p *ingestPool) merge(op *ingestOp, ch <-chan *ingestOp) *ingestOp {
	for op.nlris < snapFrameNLRIs {
		select {
		case next := <-ch:
			p.queued.Add(-1)
			if next.fence != nil || next.u != op.u || next.peerAS != op.peerAS || next.peerID != op.peerID {
				return next
			}
			op.segs = append(op.segs, next.segs...)
			op.nlris += next.nlris
			p.recycle(next)
		default:
			return nil
		}
	}
	return nil
}

// recycle returns a processed (or merged-away) op to the pool, keeping
// its segment array but none of the references in it.
func (p *ingestPool) recycle(op *ingestOp) {
	clear(op.segs)
	*op = ingestOp{segs: op.segs[:0]}
	p.ops.Put(op)
}

// send queues op on shard i. After shutdown the op is dropped (fences
// are released so no barrier hangs).
func (p *ingestPool) send(i int, op *ingestOp) bool {
	p.gate.RLock()
	if p.stopped {
		p.gate.RUnlock()
		if op.fence != nil {
			op.fence.Done()
		}
		return false
	}
	p.queued.Add(1)
	p.chans[i] <- op
	p.gate.RUnlock()
	return true
}

// barrier blocks until every operation dispatched before it has been
// fully processed. Callers must not be ingest workers.
func (p *ingestPool) barrier() {
	var wg sync.WaitGroup
	wg.Add(len(p.chans))
	for i := range p.chans {
		p.send(i, &ingestOp{fence: &wg})
	}
	wg.Wait()
}

// process applies one op to shard si: the compiled safety filter first
// (pre-RIB, so a rejected route never touches the Adj-RIB-In or any
// client queue), a fold to final state per prefix, one shard-writer
// table pass, then fan-out as one shared frame, with the client
// snapshot taken under the same lock (see the ordering notes in the
// package comment above). The filter pointer is loaded exactly once per
// op — merged ops included: a policy reload racing this worker lands
// entirely before or entirely after the op's NLRIs — every route gets
// exactly one verdict from one coherent rule set. Withdrawals always
// pass; retracting state is always safe. entries is the caller's
// scratch, handed back for reuse.
func (p *ingestPool) process(op *ingestOp, si int, entries []batchEntry) []batchEntry {
	u := op.u
	m := p.srv.metrics
	if f := p.srv.policy.Current(); f != nil {
		peer := compiled.Peer{AS: op.peerAS, Transit: u.cfg.Transit}
		for k := range op.segs {
			if sg := &op.segs[k]; sg.attrs != nil {
				sg.nlris = p.filter(f, peer, sg)
			}
		}
	}

	// Fold to final state: the last segment touching a prefix wins, so
	// the table pass and the frame agree and a frame never carries a
	// stale announcement ahead of its own withdrawal. This is where the
	// pipeline coalesces — once, for every client. One segment is one
	// kind of operation under one attribute set and needs no index.
	var idx map[netip.Prefix]int
	if len(op.segs) > 1 {
		idx = make(map[netip.Prefix]int, op.nlris)
	}
	entries = entries[:0]
	folded := 0
	for _, sg := range op.segs {
		for _, n := range sg.nlris {
			if idx != nil {
				if j, ok := idx[n.Prefix]; ok {
					entries[j].attrs = sg.attrs
					folded++
					continue
				}
				idx[n.Prefix] = len(entries)
			}
			entries = append(entries, batchEntry{nlri: n, attrs: sg.attrs})
		}
	}
	if len(entries) > 0 {
		m.ingestBatchSize.Observe(float64(len(entries)))
		if folded > 0 {
			m.fanoutCoalesced.Add(uint64(folded))
		}
		skey, pathID := p.srv.sessionKey(u)
		// Install and enqueue under one hold of the shard's write lock
		// (the ordering contract in the package comment): a replay walk
		// is then strictly before or strictly after this whole op, never
		// between the install and the fan-out.
		u.adjIn.Update(si, func(t *rib.AdjRIB) {
			u.replay[si].drop()
			for _, e := range entries {
				if e.attrs == nil {
					t.Remove(e.nlri.Prefix, 0)
					continue
				}
				t.Set(&rib.Route{
					Prefix:  e.nlri.Prefix,
					Attrs:   e.attrs,
					Src:     rib.PeerKey{Addr: u.cfg.PeerAddr},
					PeerAS:  op.peerAS,
					PeerID:  op.peerID,
					EBGP:    true,
					Learned: op.learned,
				})
			}
			if clients := p.srv.clientList(); len(clients) > 0 {
				p.srv.broadcast(si, clients, newBroadcastFrame(skey, u.cfg.ID, pathID, entries))
			}
		})
		clear(entries)
	}
	p.recycle(op)
	return entries
}

// filter runs the compiled verdict over one announce segment,
// compacting survivors in place (the slice is owned by the op).
// Accepted counts batch into one counter add; rejects bump their
// rule-class counter individually, since they are the rare case.
func (p *ingestPool) filter(f *compiled.Filter, peer compiled.Peer, sg *ingestSeg) []wire.NLRI {
	kept := sg.nlris[:0]
	for _, n := range sg.nlris {
		v := f.Verdict(n.Prefix, sg.attrs, peer)
		if v.Accept {
			kept = append(kept, n)
			continue
		}
		p.srv.metrics.policyRejected[v.Class].Inc()
	}
	if len(kept) > 0 {
		p.srv.metrics.policyAccepted.Add(uint64(len(kept)))
	}
	return kept
}

// dispatch splits a run of UPDATEs (one batched session read, or a
// single message) by shard: one channel send and one worker pass per
// touched shard covers the whole run, preserving source order within
// each shard via ordered segments. The dominant case — every NLRI of a
// run hashing alike — ships the decoded slices through untouched and
// allocates no per-shard table.
func (p *ingestPool) dispatch(u *Upstream, peerAS uint32, peerID netip.Addr, upds []*wire.Update) {
	now := p.srv.clk.Now()
	var first *ingestOp // the first shard touched, and usually the only one
	firstShard := 0
	var others []*ingestOp // by shard; allocated when a second one is touched
	opFor := func(si int) *ingestOp {
		if first != nil {
			if si == firstShard {
				return first
			}
			if others == nil {
				others = make([]*ingestOp, len(p.chans))
			}
			if others[si] != nil {
				return others[si]
			}
		}
		op := p.ops.Get().(*ingestOp)
		op.u, op.peerAS, op.peerID, op.learned = u, peerAS, peerID, now
		if first == nil {
			first, firstShard = op, si
		} else {
			others[si] = op
		}
		return op
	}
	shardOf := func(n wire.NLRI) int { return int(rib.PrefixShard(n.Prefix) & p.mask) }
	add := func(attrs *wire.Attrs, nlris []wire.NLRI) {
		if len(nlris) == 0 {
			return
		}
		si := shardOf(nlris[0])
		for _, n := range nlris[1:] {
			if shardOf(n) != si {
				for k := range nlris {
					opFor(shardOf(nlris[k])).add(attrs, nlris[k:k+1])
				}
				return
			}
		}
		opFor(si).add(attrs, nlris)
	}
	for _, upd := range upds {
		add(nil, upd.Withdrawn)
		if upd.Attrs != nil { // announcements without attributes carry no state
			add(upd.Attrs, upd.Reach)
		}
	}
	if first != nil {
		p.send(firstShard, first)
	}
	for si, op := range others {
		if op != nil {
			p.send(si, op)
		}
	}
}
