package rib

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"peering/internal/wire"
)

// TestUncanonicalPrefixIsOneKey is the host-bits regression: a prefix
// given as 10.1.2.3/16 and its masked form 10.1.0.0/16 are one key in
// every table, and one shard. Pre-fix the shard hash read the address
// as given while the table under it keyed the masked prefix, so on an
// 8-shard Loc-RIB 14 of these 16 routes could not be found again under
// their canonical prefix.
func TestUncanonicalPrefixIsOneKey(t *testing.T) {
	given, masked := prefix("10.1.2.3/16"), prefix("10.1.0.0/16")
	a := NewAdjRIB()
	if a.Set(mkRoute(given.String(), "192.0.2.1", nil)) {
		t.Fatal("first Set reported a replacement")
	}
	if r := a.Get(masked, 0); r == nil || r.Prefix != given {
		t.Fatalf("Get(masked) = %v, want the route stored as given", r)
	}
	if a.Get(given, 0) != a.Get(masked, 0) {
		t.Fatal("given and masked prefix read different routes")
	}
	if !a.Set(mkRoute(masked.String(), "192.0.2.1", nil)) {
		t.Fatal("Set of the masked form did not replace the un-masked one")
	}
	if a.Len() != 1 {
		t.Fatalf("Len = %d, want 1", a.Len())
	}
	if a.Remove(given, 0) == nil || a.Len() != 0 {
		t.Fatalf("Remove(given) missed; Len = %d", a.Len())
	}

	for _, shards := range []int{1, 8} {
		l := NewLocRIBShards(shards)
		src := PeerKey{Addr: addr("192.0.2.1")}
		for i := 0; i < 16; i++ {
			l.Update(mkRoute(fmt.Sprintf("10.%d.2.3/16", i), "192.0.2.1", nil))
		}
		for i := 0; i < 16; i++ {
			given, masked := prefix(fmt.Sprintf("10.%d.2.3/16", i)), prefix(fmt.Sprintf("10.%d.0.0/16", i))
			if PrefixShard(given) != PrefixShard(masked) {
				t.Fatalf("%v and %v hash to different shards", given, masked)
			}
			if l.Best(masked) == nil || l.Best(masked) != l.Best(given) {
				t.Fatalf("%d shards: Best(%v) = %v, Best(%v) = %v", shards, masked, l.Best(masked), given, l.Best(given))
			}
			// The masked form from the same peer replaces, it does not add.
			l.Update(mkRoute(masked.String(), "192.0.2.1", nil))
		}
		if l.Prefixes() != 16 || l.Routes() != 16 {
			t.Fatalf("%d shards: prefixes=%d routes=%d, want 16/16", shards, l.Prefixes(), l.Routes())
		}
		for i := 0; i < 16; i++ {
			if _, changed := l.Withdraw(prefix(fmt.Sprintf("10.%d.9.9/16", i)), src); !changed {
				t.Fatalf("%d shards: Withdraw of an un-masked 10.%d/16 missed", shards, i)
			}
		}
		if l.Prefixes() != 0 || l.Routes() != 0 {
			t.Fatalf("%d shards: prefixes=%d routes=%d after withdrawing all", shards, l.Prefixes(), l.Routes())
		}
	}
}

// modelRoute is one entry of the reference table TestAdjRIBModel checks
// an AdjRIB against: a slice scanned end to end for every operation.
type modelRoute struct {
	masked, given netip.Prefix
	id            wire.PathID
	attrs         *wire.Attrs
	stale         bool
}

type adjModel []modelRoute

func (m adjModel) find(p netip.Prefix, id wire.PathID) int {
	p = p.Masked()
	for i := range m {
		if m[i].masked == p && m[i].id == id {
			return i
		}
	}
	return -1
}

// TestAdjRIBModel drives a seeded stream of Set (new and replacing),
// Remove, MarkAllStale and SweepStale — several path ids per prefix,
// some prefixes given with host bits set — into an AdjRIB and a naive
// slice-scan model, and compares the two after every operation: Len,
// Get of every possible key, the set of routes Walk yields and the
// per-attrs group sizes of WalkGrouped. A displaced *Route must keep
// reading what it held when it was stored (copy-on-replace, per path
// id). Walk order differs on every run, so nothing here may depend on
// it.
func TestAdjRIBModel(t *testing.T) {
	const nPrefixes, nIDs, steps = 200, 4, 3000
	rng := rand.New(rand.NewSource(22))
	attrs := make([]*wire.Attrs, 8)
	for i := range attrs {
		attrs[i] = &wire.Attrs{Origin: wire.OriginIGP, NextHop: addr("192.0.2.1"), MED: uint32(i), HasMED: true}
	}
	// pick returns one of the nPrefixes /24s, half the time with host
	// bits set.
	pick := func() netip.Prefix {
		i := rng.Intn(nPrefixes)
		host := 0
		if rng.Intn(2) == 0 {
			host = 1 + rng.Intn(255)
		}
		return prefix(fmt.Sprintf("10.%d.%d.%d/24", i/100, i%100, host))
	}
	a := NewAdjRIB()
	var m adjModel

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 60:
			p, id, at := pick(), wire.PathID(rng.Intn(nIDs)), attrs[rng.Intn(len(attrs))]
			i := m.find(p, id)
			old := a.Get(p, id)
			replaced := a.Set(&Route{Prefix: p, Attrs: at, Src: PeerKey{Addr: addr("192.0.2.1"), PathID: id}})
			if replaced != (i >= 0) {
				t.Fatalf("step %d: Set(%v#%d) replaced = %v, model has it = %v", step, p, id, replaced, i >= 0)
			}
			if i < 0 {
				m, i = append(m, modelRoute{}), len(m)
			} else if old == a.Get(p, id) {
				t.Fatalf("step %d: Set(%v#%d) reused the stored Route", step, p, id)
			} else if old.Attrs != m[i].attrs || old.Prefix != m[i].given || old.Stale != m[i].stale {
				t.Fatalf("step %d: displaced route %v changed under its holder", step, old)
			}
			m[i] = modelRoute{p.Masked(), p, id, at, false}
		case op < 90:
			p, id := pick(), wire.PathID(rng.Intn(nIDs))
			i := m.find(p, id)
			r := a.Remove(p, id)
			if (r != nil) != (i >= 0) {
				t.Fatalf("step %d: Remove(%v#%d) = %v, model has it = %v", step, p, id, r, i >= 0)
			}
			if i >= 0 {
				if r.Attrs != m[i].attrs || r.Prefix != m[i].given {
					t.Fatalf("step %d: Remove(%v#%d) returned %v, model holds %+v", step, p, id, r, m[i])
				}
				m = append(m[:i], m[i+1:]...)
			}
		case op < 95:
			want := 0
			for i := range m {
				if !m[i].stale {
					m[i].stale = true
					want++
				}
			}
			if got := a.MarkAllStale(); got != want {
				t.Fatalf("step %d: MarkAllStale = %d, want %d", step, got, want)
			}
		default:
			kept := m[:0]
			want := 0
			for _, mr := range m {
				if mr.stale {
					want++
					continue
				}
				kept = append(kept, mr)
			}
			m = kept
			swept := a.SweepStale()
			if len(swept) != want {
				t.Fatalf("step %d: SweepStale returned %d routes, want %d", step, len(swept), want)
			}
			for _, r := range swept {
				if !r.Stale || m.find(r.Prefix, r.Src.PathID) >= 0 {
					t.Fatalf("step %d: SweepStale returned %v, which the model keeps", step, r)
				}
			}
		}
		checkAdjAgainstModel(t, step, a, m, nPrefixes, nIDs)
	}
}

func checkAdjAgainstModel(t *testing.T, step int, a *AdjRIB, m adjModel, nPrefixes, nIDs int) {
	t.Helper()
	if a.Len() != len(m) {
		t.Fatalf("step %d: Len = %d, model holds %d", step, a.Len(), len(m))
	}
	for i := 0; i < nPrefixes; i++ {
		p := prefix(fmt.Sprintf("10.%d.%d.0/24", i/100, i%100))
		for id := wire.PathID(0); int(id) < nIDs; id++ {
			r, j := a.Get(p, id), m.find(p, id)
			if (r != nil) != (j >= 0) {
				t.Fatalf("step %d: Get(%v#%d) = %v, model has it = %v", step, p, id, r, j >= 0)
			}
			if j >= 0 && (r.Prefix != m[j].given || r.Attrs != m[j].attrs || r.Stale != m[j].stale || r.Src.PathID != id) {
				t.Fatalf("step %d: Get(%v#%d) = %+v, model holds %+v", step, p, id, r, m[j])
			}
		}
	}
	// Get agreed on every key, so Walk is right iff it yields each
	// stored route exactly once.
	seen := make(map[*Route]bool, len(m))
	a.Walk(func(r *Route) bool {
		if seen[r] || a.Get(r.Prefix, r.Src.PathID) != r {
			t.Fatalf("step %d: Walk yielded %v twice or not from the table", step, r)
		}
		seen[r] = true
		return true
	})
	if len(seen) != len(m) {
		t.Fatalf("step %d: Walk yielded %d routes, model holds %d", step, len(seen), len(m))
	}
	wantGroups := make(map[*wire.Attrs]int)
	for _, mr := range m {
		wantGroups[mr.attrs]++
	}
	groups := 0
	a.WalkGrouped(func(at *wire.Attrs, ns []wire.NLRI) {
		groups++
		if len(ns) != wantGroups[at] {
			t.Fatalf("step %d: WalkGrouped group of %d routes, model has %d with those attrs", step, len(ns), wantGroups[at])
		}
		if cap(ns) != len(ns) {
			t.Fatalf("step %d: WalkGrouped group of %d routes has room for %d: an append would write into its neighbour", step, len(ns), cap(ns))
		}
		for _, n := range ns {
			if j := m.find(n.Prefix, n.ID); j < 0 || m[j].attrs != at || m[j].given != n.Prefix {
				t.Fatalf("step %d: WalkGrouped put %v#%d in the wrong group", step, n.Prefix, n.ID)
			}
		}
	})
	if groups != len(wantGroups) {
		t.Fatalf("step %d: WalkGrouped made %d groups, model has %d", step, groups, len(wantGroups))
	}
}

// TestAdjRIBSetAllocs pins what a route costs the table beyond itself:
// a Set that replaces an existing key allocates the fresh *Route and
// nothing else — no node, no per-prefix map.
func TestAdjRIBSetAllocs(t *testing.T) {
	a := NewAdjRIB()
	r := mkRoute("10.0.0.0/24", "192.0.2.1", nil)
	a.Set(r)
	if n := testing.AllocsPerRun(100, func() { a.Set(r) }); n != 1 {
		t.Fatalf("replacing Set allocates %v times, want 1 (the Route)", n)
	}
}
