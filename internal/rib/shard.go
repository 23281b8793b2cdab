package rib

// Prefix-hash sharding for ShardedAdj, the server's per-upstream
// Adj-RIB-In. A full Internet table (~1M prefixes) under one RWMutex
// would serialize the server's ingest workers and make each client's
// replay a scan under that same lock; splitting the table by prefix hash
// gives each shard its own lock and hash table, so one worker owns each
// shard and table operations on different shards proceed independently.
// The shard of a prefix is a pure function of the prefix, so a given
// (prefix, path) always lands in the same shard and per-prefix orderings
// are preserved no matter how many shards exist.

import (
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"

	"peering/internal/wire"
)

// DefaultShards is the shard count used when a table is created without
// an explicit one: enough shards that workers on every core can run
// without contending (4× GOMAXPROCS), capped to bound per-table fixed
// cost. The count is deliberately small when there is little
// parallelism to gain: every shard splits an upstream batch's
// attrs-groups across that many fan-out frames — one UPDATE per
// (attrs-group, shard) — so each extra shard multiplies the UPDATE
// count every client must parse. On a one-core box that cost buys
// nothing, and two shards suffice to keep the sharded structures and
// their invariants exercised.
func DefaultShards() int {
	g := runtime.GOMAXPROCS(0)
	if g == 1 {
		return 2
	}
	n := 4 * g
	if n > 64 {
		n = 64
	}
	return ShardCount(n)
}

// ShardCount normalizes a requested shard count: <= 0 means the
// default, anything else is rounded up to a power of two so the shard
// index is a mask instead of a modulo. Exported so owners of parallel
// per-shard structures (the server's ingest pool and fan-out queues)
// resolve the same count the tables do.
func ShardCount(n int) int {
	if n <= 0 {
		return DefaultShards()
	}
	p := 1
	for p < n && p < 1<<16 {
		p <<= 1
	}
	return p
}

// PrefixShard hashes a prefix to a shard selector; masking with a
// power-of-two shard count picks the shard. Exported so the server
// partitions ingest work, Adj-RIB-In shards and queue slots on one
// function, keeping one prefix on one worker end to end. It hashes
// the masked form of p, the form the tables key by, so a prefix given
// with host bits set lands in the shard that holds it. The hash is
// FNV-1a over the 16-byte address plus the prefix length, with the high
// half folded in so small masks still see the whole hash.
func PrefixShard(p netip.Prefix) uint32 {
	p = p.Masked()
	b := p.Addr().As16()
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	h = (h ^ uint32(uint8(p.Bits()))) * 16777619
	return h ^ h>>16
}

// ShardedAdj is a prefix-hash-sharded Adj-RIB, safe for concurrent
// use: each shard is a plain AdjRIB under its own RWMutex. It backs
// the server's per-upstream Adj-RIB-In, where ingest workers mutate
// disjoint shards concurrently while replays and snapshots walk them.
//
// Every mutation goes through Update, one shard at a time — the
// server's ingest workers are its only writers — and every read through
// ReadShard; the tables hand out Routes by value, so nothing a reader
// holds is the table's.
type ShardedAdj struct {
	shards []adjShard
	n      atomic.Int64
}

type adjShard struct {
	mu  sync.RWMutex
	rib *AdjRIB
	// gen counts Updates: two reads that see the same gen saw the same
	// routes.
	gen uint64
}

// NewShardedAdj returns an empty table with n shards (rounded up to a
// power of two; n <= 0 means DefaultShards).
func NewShardedAdj(n int) *ShardedAdj {
	n = ShardCount(n)
	s := &ShardedAdj{shards: make([]adjShard, n)}
	for i := range s.shards {
		s.shards[i].rib = NewAdjRIB()
	}
	return s
}

// Shards reports the shard count.
func (s *ShardedAdj) Shards() int { return len(s.shards) }

// SetInterner configures attribute canonicalization on every shard.
// Call before concurrent use.
func (s *ShardedAdj) SetInterner(t *wire.InternTable) {
	for i := range s.shards {
		s.shards[i].rib.SetInterner(t)
	}
}

// Update runs fn on shard i's table under its write lock: one lock
// round-trip covers an entire batch of Sets and Removes, which is what makes batched ingest one shard-writer
// pass instead of a lock acquisition per route. The route-count delta
// is folded into Len from the table's own before/after lengths. fn
// must only mutate routes whose prefixes hash to shard i — everything
// the batching dispatcher sends a worker already does. Every call moves
// the shard's gen, whatever fn did: Update is the only way to add,
// replace or remove a route.
func (s *ShardedAdj) Update(i int, fn func(*AdjRIB)) {
	sh := &s.shards[i]
	sh.mu.Lock()
	sh.gen++
	before := sh.rib.Len()
	fn(sh.rib)
	d := sh.rib.Len() - before
	sh.mu.Unlock()
	if d != 0 {
		s.n.Add(int64(d))
	}
}

// ReadShard runs fn on shard i's table under its read lock. Mutators
// are excluded while fn runs, so anything fn enqueues is ordered before
// any route that later supersedes it — the guarantee the server's
// replay walk relies on, scoped to one shard so a joiner's snapshot
// frames are built and queued shard by shard. gen is how many Updates
// the shard has seen: anything derived from the routes under one gen
// (the server's cached replay snapshot) is still exact while a later
// read reports the same gen. Reads never move it, and neither does
// MarkAllStale, which changes no route's prefix or attributes.
func (s *ShardedAdj) ReadShard(i int, fn func(gen uint64, t *AdjRIB)) {
	sh := &s.shards[i]
	sh.mu.RLock()
	fn(sh.gen, sh.rib)
	sh.mu.RUnlock()
}

// Len reports the number of stored routes (not prefixes).
func (s *ShardedAdj) Len() int { return int(s.n.Load()) }

// MarkAllStale flags every stored route stale (graceful restart
// entry), returning how many were newly marked.
func (s *ShardedAdj) MarkAllStale() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.rib.MarkAllStale()
		sh.mu.Unlock()
	}
	return n
}
