package rib

import (
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"peering/internal/wire"
)

// ---------------------------------------------------------------------
// Bugfix regressions

// TestNilAttrsRoutes is the attribute-less table test: String, Better,
// and the Loc-RIB decision process must all tolerate routes carrying no
// attributes (pre-fix, Better and String dereferenced r.Attrs
// unconditionally and panicked).
func TestNilAttrsRoutes(t *testing.T) {
	bare := func(p, peer string) *Route {
		return mkRoute(p, peer, func(r *Route) { r.Attrs = nil })
	}
	cases := []struct {
		name string
		a, b *Route
	}{
		{"both nil", bare("10.0.0.0/24", "192.0.2.1"), bare("10.0.0.0/24", "192.0.2.2")},
		{"a nil", bare("10.0.0.0/24", "192.0.2.1"), mkRoute("10.0.0.0/24", "192.0.2.2", nil)},
		{"b nil", mkRoute("10.0.0.0/24", "192.0.2.1", nil), bare("10.0.0.0/24", "192.0.2.2")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// String must render, not panic.
			_ = tc.a.String()
			_ = tc.b.String()
			// Better must stay a strict weak order: not both directions.
			ab, ba := Better(tc.a, tc.b), Better(tc.b, tc.a)
			if ab && ba {
				t.Fatalf("Better claims both %v > %v and the reverse", tc.a, tc.b)
			}
			// An attribute-less route has path length 0: it must win step 2
			// against any route with a non-empty path (equal LOCAL_PREF).
			l := NewLocRIB()
			l.Update(tc.a)
			l.Update(tc.b)
			if best := l.Best(prefix("10.0.0.0/24")); best == nil {
				t.Fatal("no best route selected")
			}
		})
	}
}

// TestWithdrawReleasesBackingArray is the WithdrawPeer lifetime-leak
// regression: compacting candidates with kept := e.candidates[:0] used
// to leave the dropped *Route pointers alive in the backing array tail.
func TestWithdrawPeerReleasesBackingArray(t *testing.T) {
	l := NewLocRIB()
	p := "10.1.0.0/24"
	l.Update(mkRoute(p, "192.0.2.1", nil))
	l.Update(mkRoute(p, "192.0.2.2", nil))
	l.Update(mkRoute(p, "192.0.2.3", nil))

	// Drop the two peers that sort last so survivors compact to the front.
	l.WithdrawPeer(addr("192.0.2.2"))
	l.WithdrawPeer(addr("192.0.2.3"))

	e := locEntry(t, l, prefix(p))
	if len(e.candidates) != 1 {
		t.Fatalf("candidates = %d, want 1", len(e.candidates))
	}
	for i, c := range e.candidates[:cap(e.candidates)] {
		if i >= len(e.candidates) && c != nil {
			t.Fatalf("backing array slot %d still pins %v after WithdrawPeer", i, c)
		}
	}
}

// TestWithdrawReleasesSlot covers the same leak class on single-route
// Withdraw: the vacated last slot must not pin the removed route.
func TestWithdrawReleasesSlot(t *testing.T) {
	l := NewLocRIB()
	p := "10.2.0.0/24"
	l.Update(mkRoute(p, "192.0.2.1", nil))
	l.Update(mkRoute(p, "192.0.2.2", nil))
	l.Withdraw(prefix(p), PeerKey{Addr: addr("192.0.2.1")})

	e := locEntry(t, l, prefix(p))
	if len(e.candidates) != 1 {
		t.Fatalf("candidates = %d, want 1", len(e.candidates))
	}
	for i, c := range e.candidates[:cap(e.candidates)] {
		if i >= len(e.candidates) && c != nil {
			t.Fatalf("backing array slot %d still pins %v after Withdraw", i, c)
		}
	}
}

// locEntry digs the internal entry for p out of l (test-only).
func locEntry(t *testing.T, l *LocRIB, p netip.Prefix) *entry {
	t.Helper()
	l.mu.RLock()
	defer l.mu.RUnlock()
	e := l.m[p.Masked()]
	if e == nil {
		t.Fatalf("prefix %v not present", p)
	}
	return e
}

// TestAdjRIBSetAliasing is the AdjRIB.Set / LocRIB.Update aliasing
// regression: Set used to overwrite a stored *Route in place, so a
// pointer previously passed to LocRIB.Update was silently mutated
// without a recompute. The table now hands out Routes by value, so what
// the Loc-RIB holds is a copy no Set can reach: a replacement must leave
// it intact until the caller re-runs the decision process.
func TestAdjRIBSetAliasing(t *testing.T) {
	intern := wire.NewInternTable()
	adj := NewAdjRIB()
	adj.SetInterner(intern)
	loc := NewLocRIB()
	p := prefix("10.3.0.0/24")

	adj.Set(mkRoute("10.3.0.0/24", "192.0.2.1", nil))
	stored, _ := adj.Get(p, 0)
	loc.Update(&stored)
	oldAttrs := stored.Attrs

	// Replace the route with a longer path.
	adj.Set(mkRoute("10.3.0.0/24", "192.0.2.1", func(r *Route) {
		r.Attrs = &wire.Attrs{
			Origin:  wire.OriginIGP,
			ASPath:  []wire.Segment{{Type: wire.SegSequence, ASNs: []uint32{65001, 65002, 65003, 65004}}},
			NextHop: addr("192.0.2.1"),
		}
	}))

	best := loc.Best(p)
	if best == nil {
		t.Fatal("no best route")
	}
	if best.Attrs != oldAttrs {
		t.Fatalf("Loc-RIB best attrs mutated by AdjRIB.Set without a recompute: got %v, want the original snapshot", best.Attrs.PathString())
	}

	// The boundary protocol: feed the freshly stored route back through
	// Update, and the best must be re-decided on the new attrs.
	fresh, _ := adj.Get(p, 0)
	loc.Update(&fresh)
	if got := loc.Best(p).Attrs; got == oldAttrs || got.PathLen() != 4 {
		t.Fatalf("best not re-decided after Update: path %v", got.PathString())
	}
}

// ---------------------------------------------------------------------
// Concurrency

// TestLocRIBConcurrentOps exercises Update/Withdraw/WithdrawPeer from
// several writers alongside Best/WalkBest/WalkAll readers under the race
// detector: a router's session goroutines write the one table at once.
func TestLocRIBConcurrentOps(t *testing.T) {
	l := NewLocRIB()
	const writers, iters = 4, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			peer := fmt.Sprintf("192.0.2.%d", w+1)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				p := fmt.Sprintf("10.%d.%d.0/24", w, rng.Intn(64))
				switch op := rng.Intn(40); {
				case op == 0:
					l.WithdrawPeer(addr(peer))
				case op < 10:
					l.Withdraw(prefix(p), PeerKey{Addr: addr(peer)})
				default:
					l.Update(mkRoute(p, peer, nil))
				}
			}
			// A last announcement, so the table cannot end empty.
			l.Update(mkRoute(fmt.Sprintf("10.%d.255.0/24", w), peer, nil))
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Best(prefix(fmt.Sprintf("10.%d.%d.0/24", i%writers, i%64)))
				n := 0
				l.WalkBest(func(*Route) bool { n++; return n < 50 })
				l.WalkAll(func(*Route) bool { n++; return true })
				_ = l.Routes()
			}
		}(r)
	}
	wg.Wait()
	if l.Prefixes() < writers {
		t.Fatalf("prefixes = %d after concurrent load, want at least %d", l.Prefixes(), writers)
	}
	n := 0
	l.WalkAll(func(*Route) bool { n++; return true })
	if n != l.Routes() {
		t.Fatalf("WalkAll visited %d routes, Routes() = %d", n, l.Routes())
	}
}

// shardOf is the shard of s holding prefix p — the routing every writer
// of a ShardedAdj applies before Update.
func shardOf(s *ShardedAdj, p netip.Prefix) int {
	return int(PrefixShard(p)) & (s.Shards() - 1)
}

// shardedSet and shardedRemove mutate one route through Update, the
// table's only write path.
func shardedSet(s *ShardedAdj, r *Route) {
	s.Update(shardOf(s, r.Prefix), func(t *AdjRIB) { t.Set(r) })
}

func shardedRemove(s *ShardedAdj, p netip.Prefix) {
	s.Update(shardOf(s, p), func(t *AdjRIB) { t.Remove(p, 0) })
}

// shardedWalk visits every stored route, shard by shard.
func shardedWalk(s *ShardedAdj, fn func(Route) bool) {
	for i := 0; i < s.Shards(); i++ {
		s.ReadShard(i, func(_ uint64, t *AdjRIB) { t.Walk(fn) })
	}
}

// shardedStale counts the routes currently marked stale.
func shardedStale(s *ShardedAdj) int {
	n := 0
	shardedWalk(s, func(r Route) bool {
		if r.Stale {
			n++
		}
		return true
	})
	return n
}

// TestShardedAdjConcurrent exercises ShardedAdj under concurrent
// Update/Walk/ReadShard/stale cycling (race-detector coverage for the
// server's ingest-worker access pattern).
func TestShardedAdjConcurrent(t *testing.T) {
	s := NewShardedAdj(8)
	s.SetInterner(wire.NewInternTable())
	var wg sync.WaitGroup
	const writers, iters = 4, 300
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				p := fmt.Sprintf("10.%d.%d.0/24", w, rng.Intn(64))
				if rng.Intn(4) == 0 {
					shardedRemove(s, prefix(p))
				} else {
					shardedSet(s, mkRoute(p, "192.0.2.9", nil))
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			n := 0
			shardedWalk(s, func(Route) bool { n++; return true })
			for sh := 0; sh < s.Shards(); sh++ {
				s.ReadShard(sh, func(_ uint64, t *AdjRIB) {
					t.WalkGrouped(func(*wire.Attrs, []wire.NLRI) {})
				})
			}
			_ = s.Len()
			_ = shardedStale(s)
		}
	}()
	wg.Wait()

	// Stale round-trip: everything marked must sweep, leaving zero.
	n := s.MarkAllStale()
	if n != s.Len() {
		t.Fatalf("marked %d of %d", n, s.Len())
	}
	swept := 0
	for i := 0; i < s.Shards(); i++ {
		s.Update(i, func(t *AdjRIB) { swept += len(t.SweepStale()) })
	}
	if swept != n {
		t.Fatalf("swept %d, want %d", swept, n)
	}
	if s.Len() != 0 || shardedStale(s) != 0 {
		t.Fatalf("table not empty after sweep: len=%d stale=%d", s.Len(), shardedStale(s))
	}
}

// TestShardedAdjParity checks ShardedAdj against a plain AdjRIB over a
// deterministic op sequence, for several shard counts: same membership,
// same Len, same attribute groups — the shard count must never change
// what the table holds.
func TestShardedAdjParity(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		intern := wire.NewInternTable()
		ref := NewAdjRIB()
		ref.SetInterner(intern)
		s := NewShardedAdj(shards)
		s.SetInterner(intern)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 2000; i++ {
			p := fmt.Sprintf("10.%d.%d.0/24", rng.Intn(8), rng.Intn(200))
			if rng.Intn(3) == 0 {
				ref.Remove(prefix(p), 0)
				shardedRemove(s, prefix(p))
				continue
			}
			peer := fmt.Sprintf("192.0.2.%d", 1+rng.Intn(3)) // three attribute groups
			ref.Set(mkRoute(p, "192.0.2.1", func(r *Route) { r.Attrs.NextHop = addr(peer) }))
			shardedSet(s, mkRoute(p, "192.0.2.1", func(r *Route) { r.Attrs.NextHop = addr(peer) }))
		}
		if ref.Len() != s.Len() {
			t.Fatalf("%d shards: Len: sharded %d, ref %d", shards, s.Len(), ref.Len())
		}
		// Membership both ways: every sharded route is the reference's,
		// attributes included, and there are as many of them.
		walked := 0
		shardedWalk(s, func(r Route) bool {
			walked++
			if want, ok := ref.Get(r.Prefix, r.Src.PathID); !ok || want.Attrs != r.Attrs {
				t.Fatalf("%d shards: sharded table holds %v, reference has %v", shards, r, want)
			}
			return true
		})
		if walked != ref.Len() {
			t.Fatalf("%d shards: walked %d routes, reference holds %d", shards, walked, ref.Len())
		}
		// Groups: the per-shard grouped walks the replay path uses add up
		// to the reference's groups.
		want, got := map[*wire.Attrs]int{}, map[*wire.Attrs]int{}
		ref.WalkGrouped(func(a *wire.Attrs, ns []wire.NLRI) { want[a] += len(ns) })
		for i := 0; i < s.Shards(); i++ {
			s.ReadShard(i, func(_ uint64, t *AdjRIB) {
				t.WalkGrouped(func(a *wire.Attrs, ns []wire.NLRI) { got[a] += len(ns) })
			})
		}
		if !maps.Equal(got, want) {
			t.Fatalf("%d shards: attribute groups differ: sharded %v, ref %v", shards, got, want)
		}
	}
}

// TestShardedAdjGen: a shard's gen moves on every Update of that shard,
// whatever the callback did, and on nothing else — not a read, a walk
// or a stale mark, which leave every route's prefix and attributes as
// they were. It is what lets the server keep a replay snapshot of an
// unwritten shard.
func TestShardedAdjGen(t *testing.T) {
	s := NewShardedAdj(4)
	gens := func() []uint64 {
		out := make([]uint64, s.Shards())
		for i := range out {
			s.ReadShard(i, func(gen uint64, _ *AdjRIB) { out[i] = gen })
		}
		return out
	}
	r := mkRoute("10.1.0.0/24", "192.0.2.9", nil)
	home := shardOf(s, r.Prefix)
	for step, write := range []func(*AdjRIB){
		func(t *AdjRIB) { t.Set(r) },
		func(t *AdjRIB) { t.Set(r) }, // a replace
		func(*AdjRIB) {},             // an Update that wrote nothing
		func(t *AdjRIB) { t.Remove(r.Prefix, 0) },
	} {
		before := gens()
		s.Update(home, write)
		for i, g := range gens() {
			want := before[i]
			if i == home {
				want++
			}
			if g != want {
				t.Fatalf("step %d: shard %d gen = %d, want %d (home shard %d)", step, i, g, want, home)
			}
		}
	}
	shardedSet(s, r)
	before := gens()
	shardedWalk(s, func(Route) bool { return true })
	s.MarkAllStale()
	_ = s.Len()
	if after := gens(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("gens moved from %v to %v without an Update", before, after)
	}
}
