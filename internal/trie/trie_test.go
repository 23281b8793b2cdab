package trie

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// get returns the value stored at exactly p: the last prefix Supernets
// visits, if that is p itself.
func get[V any](tr *Trie[V], p netip.Prefix) (v V, ok bool) {
	tr.Supernets(p, func(q netip.Prefix, w V) bool {
		v, ok = w, q == p.Masked()
		return true
	})
	return v, ok
}

func TestInsertGet(t *testing.T) {
	tr := New[int]()
	cases := []string{
		"10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16", "10.0.1.0/24",
		"192.168.0.0/16", "0.0.0.0/0", "10.0.0.1/32",
	}
	for i, s := range cases {
		if !tr.Insert(mustPrefix(s), i) {
			t.Fatalf("Insert(%s) reported replace, want add", s)
		}
	}
	if tr.Len() != len(cases) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(cases))
	}
	for i, s := range cases {
		v, ok := get(tr, mustPrefix(s))
		if !ok || v != i {
			t.Fatalf("Get(%s) = %d,%v, want %d,true", s, v, ok, i)
		}
	}
	if _, ok := get(tr, mustPrefix("10.2.0.0/16")); ok {
		t.Fatal("Get of absent prefix succeeded")
	}
}

func TestInsertReplace(t *testing.T) {
	tr := New[string]()
	p := mustPrefix("203.0.113.0/24")
	if !tr.Insert(p, "a") {
		t.Fatal("first insert should add")
	}
	if tr.Insert(p, "b") {
		t.Fatal("second insert should replace")
	}
	if v, _ := get(tr, p); v != "b" {
		t.Fatalf("value = %q, want b", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestInsertUnmaskedPrefixCanonicalized(t *testing.T) {
	tr := New[int]()
	// 10.0.0.55/24 and 10.0.0.0/24 are the same block.
	tr.Insert(netip.MustParsePrefix("10.0.0.55/24"), 7)
	if v, ok := get(tr, mustPrefix("10.0.0.0/24")); !ok || v != 7 {
		t.Fatalf("Get canonical = %d,%v want 7,true", v, ok)
	}
}

func TestLookupLongestMatch(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix("0.0.0.0/0"), "default")
	tr.Insert(mustPrefix("10.0.0.0/8"), "eight")
	tr.Insert(mustPrefix("10.1.0.0/16"), "sixteen")
	tr.Insert(mustPrefix("10.1.2.0/24"), "twentyfour")

	cases := []struct {
		addr string
		want string
	}{
		{"10.1.2.3", "twentyfour"},
		{"10.1.3.4", "sixteen"},
		{"10.2.0.1", "eight"},
		{"172.16.0.1", "default"},
	}
	for _, c := range cases {
		_, v, ok := tr.Lookup(netip.MustParseAddr(c.addr))
		if !ok || v != c.want {
			t.Errorf("Lookup(%s) = %q,%v want %q", c.addr, v, ok, c.want)
		}
	}
}

func TestLookupNoDefault(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix("10.0.0.0/8"), "x")
	if _, _, ok := tr.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Fatal("Lookup outside any prefix should miss")
	}
}

func TestDelete(t *testing.T) {
	tr := New[int]()
	ps := []string{"10.0.0.0/8", "10.0.0.0/16", "10.0.1.0/24", "10.128.0.0/9"}
	for i, s := range ps {
		tr.Insert(mustPrefix(s), i)
	}
	if !tr.Delete(mustPrefix("10.0.0.0/16")) {
		t.Fatal("Delete of present prefix failed")
	}
	if tr.Delete(mustPrefix("10.0.0.0/16")) {
		t.Fatal("Delete of absent prefix succeeded")
	}
	if _, ok := get(tr, mustPrefix("10.0.0.0/16")); ok {
		t.Fatal("deleted prefix still present")
	}
	// Neighbors survive.
	for _, s := range []string{"10.0.0.0/8", "10.0.1.0/24", "10.128.0.0/9"} {
		if _, ok := get(tr, mustPrefix(s)); !ok {
			t.Fatalf("prefix %s lost after unrelated delete", s)
		}
	}
	// LPM for an address under the deleted /16 now hits the /8.
	p, _, ok := tr.Lookup(netip.MustParseAddr("10.0.2.1"))
	if !ok || p != mustPrefix("10.0.0.0/8") {
		t.Fatalf("Lookup after delete = %v,%v want 10.0.0.0/8", p, ok)
	}
}

func TestWalkOrderAndCompleteness(t *testing.T) {
	tr := New[int]()
	ins := []string{"10.0.0.0/8", "10.0.0.0/16", "192.0.2.0/24", "10.255.0.0/16"}
	for i, s := range ins {
		tr.Insert(mustPrefix(s), i)
	}
	got := map[string]bool{}
	tr.Walk(func(p netip.Prefix, _ int) bool {
		got[p.String()] = true
		return true
	})
	if len(got) != len(ins) {
		t.Fatalf("Walk visited %d prefixes, want %d: %v", len(got), len(ins), got)
	}
	// Early stop.
	count := 0
	tr.Walk(func(netip.Prefix, int) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early-stop walk visited %d, want 2", count)
	}
}

func TestSupernets(t *testing.T) {
	tr := New[int]()
	for i, s := range []string{
		"0.0.0.0/0", "100.64.0.0/10", "100.64.0.0/19", "100.64.0.0/24", "100.64.5.0/24", "8.8.8.0/24",
	} {
		tr.Insert(mustPrefix(s), i)
	}
	var got []string
	tr.Supernets(mustPrefix("100.64.0.0/24"), func(p netip.Prefix, _ int) bool {
		got = append(got, p.String())
		return true
	})
	// Shortest-to-longest, exact entry included, siblings excluded.
	want := []string{"0.0.0.0/0", "100.64.0.0/10", "100.64.0.0/19", "100.64.0.0/24"}
	if len(got) != len(want) {
		t.Fatalf("Supernets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Supernets[%d] = %s, want %s (order must be shortest first)", i, got[i], want[i])
		}
	}
	// A prefix only partially covered by a stored entry matches the
	// covering aggregates but not the narrower entry.
	got = got[:0]
	tr.Supernets(mustPrefix("100.64.0.0/12"), func(p netip.Prefix, _ int) bool {
		got = append(got, p.String())
		return true
	})
	if len(got) != 2 || got[0] != "0.0.0.0/0" || got[1] != "100.64.0.0/10" {
		t.Fatalf("Supernets(/12) = %v, want [0.0.0.0/0 100.64.0.0/10]", got)
	}
	// Early stop.
	n := 0
	tr.Supernets(mustPrefix("100.64.0.0/24"), func(netip.Prefix, int) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early-stop visited %d entries, want 1", n)
	}
	// The walk must not allocate: compiled filters run it per verdict.
	target := mustPrefix("100.64.5.0/24")
	if a := testing.AllocsPerRun(200, func() {
		tr.Supernets(target, func(netip.Prefix, int) bool { return true })
	}); a != 0 {
		t.Fatalf("Supernets allocates %v per run, want 0", a)
	}
}

func TestIPv6Separation(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix("2001:db8::/32"), "v6")
	tr.Insert(mustPrefix("32.0.0.0/8"), "v4") // same leading bits as 2001: would be nonsense to mix
	if _, v, ok := tr.Lookup(netip.MustParseAddr("2001:db8::1")); !ok || v != "v6" {
		t.Fatalf("v6 lookup = %q,%v", v, ok)
	}
	if _, v, ok := tr.Lookup(netip.MustParseAddr("32.1.2.3")); !ok || v != "v4" {
		t.Fatalf("v4 lookup = %q,%v", v, ok)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d want 2", tr.Len())
	}
}

// randomPrefix builds a valid random IPv4 prefix from quick-check data.
func randomPrefix(r *rand.Rand) netip.Prefix {
	var b [4]byte
	r.Read(b[:])
	bits := r.Intn(33)
	return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
}

// Property: after inserting a set of prefixes, every inserted prefix is
// retrievable and LPM of an address inside any inserted prefix returns a
// prefix at least as specific as the best brute-force match.
func TestQuickInsertLookupAgainstBruteForce(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%64) + 1
		tr := New[int]()
		set := map[netip.Prefix]int{}
		for i := 0; i < n; i++ {
			p := randomPrefix(r)
			set[p] = i
			tr.Insert(p, i)
		}
		if tr.Len() != len(set) {
			return false
		}
		for p, v := range set {
			got, ok := get(tr, p)
			if !ok || got != v {
				return false
			}
		}
		// 32 random addresses: compare LPM to brute force.
		for i := 0; i < 32; i++ {
			var b [4]byte
			r.Read(b[:])
			addr := netip.AddrFrom4(b)
			var best netip.Prefix
			bestBits := -1
			for p := range set {
				if p.Contains(addr) && p.Bits() > bestBits {
					best, bestBits = p, p.Bits()
				}
			}
			gp, _, ok := tr.Lookup(addr)
			if (bestBits >= 0) != ok {
				return false
			}
			if ok && gp != best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: delete removes exactly the deleted prefix and nothing else.
func TestQuickDeletePreservesOthers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New[int]()
		set := map[netip.Prefix]int{}
		for i := 0; i < 48; i++ {
			p := randomPrefix(r)
			set[p] = i
			tr.Insert(p, i)
		}
		// Delete a random half.
		deleted := map[netip.Prefix]bool{}
		for p := range set {
			if r.Intn(2) == 0 {
				if !tr.Delete(p) {
					return false
				}
				deleted[p] = true
			}
		}
		for p, v := range set {
			got, ok := get(tr, p)
			if deleted[p] {
				if ok {
					return false
				}
			} else if !ok || got != v {
				return false
			}
		}
		return tr.Len() == len(set)-len(deleted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeScaleInsertLookup(t *testing.T) {
	tr := New[int]()
	n := 50000
	for i := 0; i < n; i++ {
		a := netip.AddrFrom4([4]byte{byte(1 + i%200), byte(i / 200 % 256), byte(i / 51200 % 256), 0})
		tr.Insert(netip.PrefixFrom(a, 24), i)
	}
	if tr.Len() == 0 || tr.Len() > n {
		t.Fatalf("Len = %d", tr.Len())
	}
	hits := 0
	tr.Walk(func(netip.Prefix, int) bool { hits++; return true })
	if hits != tr.Len() {
		t.Fatalf("walk count %d != len %d", hits, tr.Len())
	}
}

func BenchmarkTrieInsert(b *testing.B) {
	prefixes := make([]netip.Prefix, 100000)
	for i := range prefixes {
		a := netip.AddrFrom4([4]byte{byte(1 + i%200), byte(i / 200 % 256), byte(i / 51200 % 256), 0})
		prefixes[i] = netip.PrefixFrom(a, 24)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New[int]()
		for j, p := range prefixes {
			tr.Insert(p, j)
		}
	}
}

// benchTable is the table and the addresses BenchmarkTrieLookup and
// BenchmarkFlatLookup share.
func benchTable() (*Trie[int], []netip.Addr) {
	tr := New[int]()
	for i := 0; i < 100000; i++ {
		a := netip.AddrFrom4([4]byte{byte(1 + i%200), byte(i / 200 % 256), byte(i / 51200 % 256), 0})
		tr.Insert(netip.PrefixFrom(a, 24), i)
	}
	addrs := make([]netip.Addr, 1024)
	r := rand.New(rand.NewSource(42))
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{byte(1 + r.Intn(200)), byte(r.Intn(256)), byte(r.Intn(10)), byte(r.Intn(256))})
	}
	return tr, addrs
}

func BenchmarkTrieLookup(b *testing.B) {
	tr, addrs := benchTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i%len(addrs)])
	}
}

func ExampleTrie_Lookup() {
	tr := New[string]()
	tr.Insert(netip.MustParsePrefix("10.0.0.0/8"), "coarse")
	tr.Insert(netip.MustParsePrefix("10.1.0.0/16"), "fine")
	_, v, _ := tr.Lookup(netip.MustParseAddr("10.1.2.3"))
	fmt.Println(v)
	// Output: fine
}

// TestLookupAndGetAllocFree pins the hot-path allocation behavior the
// million-route tables depend on: bit addressing via As4/As16 instead
// of AsSlice means reads allocate nothing per node visited.
func TestLookupAndGetAllocFree(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 1024; i++ {
		tr.Insert(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24), i)
	}
	a4 := netip.MustParseAddr("10.2.200.1")
	p4 := mustPrefix("10.2.200.0/24")
	tr6 := New[int]()
	tr6.Insert(mustPrefix("2001:db8::/32"), 1)
	a6 := netip.MustParseAddr("2001:db8::1")

	fl, fl6 := tr.Freeze(), tr6.Freeze()
	if n := testing.AllocsPerRun(200, func() {
		tr.Lookup(a4)
		get(tr, p4)
		tr6.Lookup(a6)
		fl.Lookup(a4)
		fl.Supernets(p4, func(netip.Prefix, int) bool { return true })
		fl6.Lookup(a6)
		fl6.Supernets(mustPrefix("2001:db8::/48"), func(netip.Prefix, int) bool { return true })
	}); n != 0 {
		t.Fatalf("lookup path allocates %v per run, want 0", n)
	}
}

// nodes counts the trie's vertices, the two roots included.
func nodes[V any](t *Trie[V]) int {
	var count func(*node[V]) int
	count = func(n *node[V]) int {
		if n == nil {
			return 0
		}
		return 1 + count(n.children[0]) + count(n.children[1])
	}
	return count(t.root4) + count(t.root6)
}

// Delete must take the structure it orphans with it: FIBs under churn
// delete as often as they insert, and every vertex left behind is
// walked by every later Walk, Freeze and lookup.
func TestDeleteReclaimsNodes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := New[int]()
	var ps []netip.Prefix
	for round := 0; round < 3; round++ {
		for i := 0; i < 20000; i++ {
			var b [4]byte
			r.Read(b[:])
			p := netip.PrefixFrom(netip.AddrFrom4(b), 24).Masked()
			if tr.Insert(p, i) {
				ps = append(ps, p)
			}
		}
		tr.Insert(mustPrefix("2001:db8::/32"), 1)
		tr.Insert(mustPrefix("2001:db8:1::/48"), 2)
		ps = append(ps, mustPrefix("2001:db8::/32"), mustPrefix("2001:db8:1::/48"))
		r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		for _, p := range ps {
			if !tr.Delete(p) {
				t.Fatalf("Delete(%v) of a stored prefix failed", p)
			}
		}
		ps = ps[:0]
		if n := nodes(tr); tr.Len() != 0 || n != 2 {
			t.Fatalf("round %d: emptied trie has Len %d and %d nodes, want 0 and the 2 roots", round, tr.Len(), n)
		}
	}

	// Under random insert/delete of every mask length the structure
	// stays proportional to what is stored, and lookups stay right.
	set := map[netip.Prefix]int{}
	for i := 0; i < 30000; i++ {
		p := randomPrefix(r)
		if r.Intn(3) > 0 {
			tr.Insert(p, i)
			set[p] = i
		} else if _, had := set[p]; tr.Delete(p) != had {
			t.Fatalf("Delete(%v) = %v, stored = %v", p, !had, had)
		} else {
			delete(set, p)
		}
		if i%4 == 0 && len(set) > 0 {
			// Delete something that is there, too: random prefixes rarely collide.
			for q := range set {
				tr.Delete(q)
				delete(set, q)
				break
			}
		}
		if i%50 != 0 {
			continue
		}
		if n := nodes(tr); tr.Len() != len(set) || n > 2*tr.Len()+2 {
			t.Fatalf("step %d: %d nodes for Len %d (model %d), want at most 2·Len+2", i, n, tr.Len(), len(set))
		}
	}
	for p, v := range set {
		if got, ok := get(tr, p); !ok || got != v {
			t.Fatalf("Get(%v) = %d,%v after churn, want %d", p, got, ok, v)
		}
	}
	f := tr.Freeze()
	checkFlatAgainstModel(t, tr, f, set, r)
}

// checkFlatAgainstModel compares both lookup forms with a brute-force
// scan of the model.
func checkFlatAgainstModel(t *testing.T, tr *Trie[int], f *Flat[int], set map[netip.Prefix]int, r *rand.Rand) {
	t.Helper()
	for i := 0; i < 300; i++ {
		a := addr4(r.Uint32())
		var best netip.Prefix
		bits := -1
		for p := range set {
			if p.Contains(a) && p.Bits() > bits {
				best, bits = p, p.Bits()
			}
		}
		tp, tv, tok := tr.Lookup(a)
		fp, fv, fok := f.Lookup(a)
		if tok != (bits >= 0) || tp != best || tv != set[best] || fok != tok || fp != tp || fv != tv {
			t.Fatalf("Lookup(%v): trie %v,%d,%v flat %v,%d,%v model %v", a, tp, tv, tok, fp, fv, fok, best)
		}
	}
}
