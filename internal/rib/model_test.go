package rib

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"peering/internal/wire"
)

// TestUncanonicalPrefixIsOneKey is the host-bits regression: a prefix
// given as 10.1.2.3/16 and its masked form 10.1.0.0/16 are one key in
// every table, and one ShardedAdj shard. Pre-fix the shard hash read the
// address as given while the table under it keyed the masked prefix, so
// on the 8-shard Loc-RIB of the time 14 of these 16 routes could not be
// found again under their canonical prefix.
func TestUncanonicalPrefixIsOneKey(t *testing.T) {
	given, masked := prefix("10.1.2.3/16"), prefix("10.1.0.0/16")
	a := NewAdjRIB()
	if a.Set(mkRoute(given.String(), "192.0.2.1", nil)) {
		t.Fatal("first Set reported a replacement")
	}
	r, ok := a.Get(masked, 0)
	if !ok || r.Prefix != masked {
		t.Fatalf("Get(masked) = %v, %v; want the route under its canonical prefix", r, ok)
	}
	if g, _ := a.Get(given, 0); g != r {
		t.Fatal("given and masked prefix read different routes")
	}
	if !a.Set(mkRoute(masked.String(), "192.0.2.1", nil)) {
		t.Fatal("Set of the masked form did not replace the un-masked one")
	}
	if a.Len() != 1 {
		t.Fatalf("Len = %d, want 1", a.Len())
	}
	if !a.Remove(given, 0) || a.Len() != 0 {
		t.Fatalf("Remove(given) missed; Len = %d", a.Len())
	}

	l := NewLocRIB()
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
			t.Fatalf("Best(%v) = %v, Best(%v) = %v", masked, l.Best(masked), given, l.Best(given))
		}
		// The masked form from the same peer replaces, it does not add.
		l.Update(mkRoute(masked.String(), "192.0.2.1", nil))
	}
	if l.Prefixes() != 16 || l.Routes() != 16 {
		t.Fatalf("prefixes=%d routes=%d, want 16/16", l.Prefixes(), l.Routes())
	}
	for i := 0; i < 16; i++ {
		if _, changed := l.Withdraw(prefix(fmt.Sprintf("10.%d.9.9/16", i)), src); !changed {
			t.Fatalf("Withdraw of an un-masked 10.%d/16 missed", i)
		}
	}
	if l.Prefixes() != 0 || l.Routes() != 0 {
		t.Fatalf("prefixes=%d routes=%d after withdrawing all", l.Prefixes(), l.Routes())
	}
}

// adjModel is the reference table TestAdjRIBModel checks an AdjRIB
// against: the Routes it should hold, each under its masked prefix, in
// a slice scanned end to end for every operation.
type adjModel []Route

func (m adjModel) find(p netip.Prefix, id wire.PathID) int {
	p = p.Masked()
	for i := range m {
		if m[i].Prefix == p && m[i].Src.PathID == id {
			return i
		}
	}
	return -1
}

// TestAdjRIBModel drives a seeded stream of Set (new and replacing),
// Remove, MarkAllStale and SweepStale — several path ids per prefix,
// some prefixes given with host bits set, several peer records in the
// one table (a client's view sets PeerAS route by route), learned times
// and IGP costs that must read back as written — into an AdjRIB and a
// naive slice-scan model, and compares the two after every operation:
// Len, Get of every possible key, the routes Walk and AppendSlots
// yield, and the per-attrs group sizes of WalkGrouped, all by value. A
// route replaced after MarkAllStale is fresh and must outlive the next
// SweepStale. Walk order differs on every run, so nothing here may
// depend on it.
func TestAdjRIBModel(t *testing.T) {
	const nPrefixes, nIDs, steps = 200, 4, 3000
	rng := rand.New(rand.NewSource(22))
	attrs := make([]*wire.Attrs, 8)
	for i := range attrs {
		attrs[i] = &wire.Attrs{Origin: wire.OriginIGP, NextHop: addr("192.0.2.1"), MED: uint32(i), HasMED: true}
	}
	peers := []Route{
		{Src: PeerKey{Addr: addr("192.0.2.1")}, PeerAS: 65001, PeerID: addr("192.0.2.1"), EBGP: true},
		{Src: PeerKey{Addr: addr("192.0.2.1")}, PeerAS: 65002, PeerID: addr("192.0.2.1"), EBGP: true},
		{Src: PeerKey{Addr: addr("192.0.2.1")}, PeerAS: 65001, PeerID: addr("192.0.2.7")},
		{Src: PeerKey{Addr: addr("2001:db8::1")}, PeerAS: 65003, PeerID: addr("192.0.2.9"), EBGP: true},
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
			r := peers[rng.Intn(len(peers))]
			r.Prefix, r.Src.PathID, r.Attrs = pick(), wire.PathID(rng.Intn(nIDs)), attrs[rng.Intn(len(attrs))]
			r.IGPCost = uint32(rng.Intn(3))
			if rng.Intn(8) != 0 { // else the zero time, which must stay zero
				r.Learned = time.Unix(0, rng.Int63())
			}
			i := m.find(r.Prefix, r.Src.PathID)
			if replaced := a.Set(&r); replaced != (i >= 0) {
				t.Fatalf("step %d: Set(%v) replaced = %v, model has it = %v", step, &r, replaced, i >= 0)
			}
			if i < 0 {
				m, i = append(m, Route{}), len(m)
			}
			r.Prefix = r.Prefix.Masked()
			m[i] = r
		case op < 90:
			p, id := pick(), wire.PathID(rng.Intn(nIDs))
			i := m.find(p, id)
			if had := a.Remove(p, id); had != (i >= 0) {
				t.Fatalf("step %d: Remove(%v#%d) = %v, model has it = %v", step, p, id, had, i >= 0)
			}
			if i >= 0 {
				m = append(m[:i], m[i+1:]...)
			}
		case op < 95:
			want := 0
			for i := range m {
				if !m[i].Stale {
					m[i].Stale = true
					want++
				}
			}
			if got := a.MarkAllStale(); got != want {
				t.Fatalf("step %d: MarkAllStale = %d, want %d", step, got, want)
			}
		default:
			kept := m[:0]
			want := map[wire.NLRI]bool{}
			for _, mr := range m {
				if mr.Stale {
					want[wire.NLRI{Prefix: mr.Prefix, ID: mr.Src.PathID}] = true
					continue
				}
				kept = append(kept, mr)
			}
			m = kept
			swept := a.SweepStale()
			if len(swept) != len(want) {
				t.Fatalf("step %d: SweepStale returned %d routes, want %d", step, len(swept), len(want))
			}
			for _, n := range swept {
				if !want[n] {
					t.Fatalf("step %d: SweepStale returned %v#%d, which the model keeps", step, n.Prefix, n.ID)
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
			r, ok := a.Get(p, id)
			j := m.find(p, id)
			if ok != (j >= 0) {
				t.Fatalf("step %d: Get(%v#%d) found = %v, model has it = %v", step, p, id, ok, j >= 0)
			}
			if ok && r != m[j] {
				t.Fatalf("step %d: Get(%v#%d) = %+v, model holds %+v", step, p, id, r, m[j])
			}
		}
	}
	// Get agreed on every key, so Walk is right iff it yields each
	// stored route exactly once; likewise AppendSlots.
	seen := make(map[wire.NLRI]bool, len(m))
	a.Walk(func(r Route) bool {
		n := wire.NLRI{Prefix: r.Prefix, ID: r.Src.PathID}
		if got, _ := a.Get(n.Prefix, n.ID); seen[n] || got != r {
			t.Fatalf("step %d: Walk yielded %v twice or not from the table", step, &r)
		}
		seen[n] = true
		return true
	})
	if len(seen) != len(m) {
		t.Fatalf("step %d: Walk yielded %d routes, model holds %d", step, len(seen), len(m))
	}
	slots := a.AppendSlots(nil)
	if len(slots) != len(m) {
		t.Fatalf("step %d: AppendSlots yielded %d routes, model holds %d", step, len(slots), len(m))
	}
	for _, sl := range slots {
		n := sl.NLRI()
		if j := m.find(n.Prefix, n.ID); !seen[n] || m[j].Attrs != sl.Attrs || m[j].Learned != sl.Learned() {
			t.Fatalf("step %d: AppendSlots yielded %v#%d twice or not as the model holds it", step, n.Prefix, n.ID)
		}
		delete(seen, n)
	}
	wantGroups := make(map[*wire.Attrs]int)
	for _, mr := range m {
		wantGroups[mr.Attrs]++
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
			if j := m.find(n.Prefix, n.ID); j < 0 || m[j].Attrs != at || m[j].Prefix != n.Prefix {
				t.Fatalf("step %d: WalkGrouped put %v#%d in the wrong group", step, n.Prefix, n.ID)
			}
		}
	})
	if groups != len(wantGroups) {
		t.Fatalf("step %d: WalkGrouped made %d groups, model has %d", step, groups, len(wantGroups))
	}
}

// TestAdjKeyRoundTrip: a prefix comes back out of a slot's key as its
// masked form, whatever its family and length, and prefixes that differ
// only in family — or routes only in path id — are different keys.
func TestAdjKeyRoundTrip(t *testing.T) {
	cases := []struct{ given, want string }{
		{"10.0.0.0/24", "10.0.0.0/24"},
		{"10.1.2.3/16", "10.1.0.0/16"}, // host bits set
		{"0.0.0.0/0", "0.0.0.0/0"},
		{"203.0.113.7/32", "203.0.113.7/32"},
		{"2001:db8::/32", "2001:db8::/32"},
		{"2001:db8::1/64", "2001:db8::/64"}, // host bits set
		{"::/0", "::/0"},
		{"2001:db8::1/128", "2001:db8::1/128"},
		{"::ffff:10.0.0.0/120", "::ffff:10.0.0.0/120"}, // 4-in-6: not 10.0.0.0/24
		{"::ffff:10.0.0.9/128", "::ffff:10.0.0.9/128"},
	}
	a := NewAdjRIB()
	for i, tc := range cases {
		for _, id := range []wire.PathID{0, 1, 1<<32 - 1} {
			k := keyOf(prefix(tc.given), id)
			if got := k.nlri(); got != (wire.NLRI{Prefix: prefix(tc.want), ID: id}) {
				t.Errorf("keyOf(%s#%d) reads back as %v#%d, want %s", tc.given, id, got.Prefix, got.ID, tc.want)
			}
			a.Set(&Route{Prefix: prefix(tc.given), Src: PeerKey{PathID: id}, IGPCost: uint32(i)})
		}
	}
	if a.Len() != 3*len(cases) {
		t.Fatalf("Len = %d, want %d: two of the cases share a key", a.Len(), 3*len(cases))
	}
	for i, tc := range cases {
		if r, ok := a.Get(prefix(tc.want), 1); !ok || r.Prefix != prefix(tc.want) || r.IGPCost != uint32(i) {
			t.Errorf("Get(%s#1) = %+v, %v", tc.want, r, ok)
		}
	}
}

// TestAdjSlotSize is the deterministic form of the bytes-per-route
// claim: what one route adds to the table's map is a pointer-free key
// and a value of 56 bytes together (one of them the attrs pointer), and
// a snapshot's Slot is 40.
func TestAdjSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(adjKey{}) + unsafe.Sizeof(adjVal{}); n > 56 {
		t.Errorf("adjKey + adjVal = %d bytes, want <= 56", n)
	}
	if n := unsafe.Sizeof(Slot{}); n > 40 {
		t.Errorf("Slot = %d bytes, want <= 40", n)
	}
	var pointers func(reflect.Type) bool
	pointers = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Array:
			return pointers(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if pointers(ty.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
			reflect.Chan, reflect.Func, reflect.Interface:
			return true
		}
		return false
	}
	if pointers(reflect.TypeOf(adjKey{})) {
		t.Error("adjKey holds a pointer: the GC would scan every key")
	}
}

// TestAdjRIBSetAllocs pins what a route costs the table beyond its
// slot: nothing. A Set that replaces a key and one that inserts into a
// table with room both allocate 0 times — no Route, no node, no
// per-prefix map.
func TestAdjRIBSetAllocs(t *testing.T) {
	a := NewAdjRIB()
	a.SetInterner(wire.NewInternTable())
	r := mkRoute("10.0.0.0/24", "192.0.2.1", func(r *Route) { r.Learned = time.Unix(1, 0) })
	a.Set(r)
	if n := testing.AllocsPerRun(100, func() { a.Set(r) }); n != 0 {
		t.Fatalf("replacing Set allocates %v times, want 0", n)
	}
	insert := func() {
		a.Remove(r.Prefix, 0)
		a.Set(r)
	}
	if n := testing.AllocsPerRun(100, insert); n != 0 {
		t.Fatalf("steady-state insert allocates %v times, want 0", n)
	}
}
