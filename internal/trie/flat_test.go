package trie

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
)

func addr4(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}

// randAddr is a random address with bitLen bits (32 or 128).
func randAddr(r *rand.Rand, bitLen int) netip.Addr {
	var b [16]byte
	r.Read(b[:])
	if bitLen == 32 {
		return netip.AddrFrom4([4]byte(b[:4]))
	}
	return netip.AddrFrom16(b)
}

// flip returns a with bit i (from the most significant) inverted.
func flip(a netip.Addr, i int) netip.Addr {
	b := a.AsSlice()
	b[i/8] ^= 0x80 >> (i % 8)
	a, _ = netip.AddrFromSlice(b)
	return a
}

// lastAddr is the last address inside p.
func lastAddr(p netip.Prefix) netip.Addr {
	a := p.Masked().Addr()
	for i := p.Bits(); i < a.BitLen(); i++ {
		a = flip(a, i)
	}
	return a
}

// pair is one (prefix, value) as given to Trie.Insert and NewFlat.
type pair struct {
	p netip.Prefix
	v int
}

func seq(ps []pair) func(func(netip.Prefix, int) bool) {
	return func(yield func(netip.Prefix, int) bool) {
		for _, x := range ps {
			if !yield(x.p, x.v) {
				return
			}
		}
	}
}

// flatTable builds a random table of about n prefixes in the given
// style and family (32: IPv4, 128: IPv6, 0: both), always with the
// shapes a sorted-array lookup can get wrong: a default route, host
// routes, equal starts at several lengths, and a chain nested through
// every length. It returns the trie and the pairs in insertion order,
// host bits and repeated prefixes included.
func flatTable(r *rand.Rand, n int, style string, family int) (*Trie[int], []pair) {
	tr := New[int]()
	var ps []pair
	add := func(a netip.Addr, bits int) {
		p := netip.PrefixFrom(a, bits)
		ps = append(ps, pair{p, len(ps) + 1})
		tr.Insert(p, len(ps))
	}
	bitLen := func() int {
		if family == 0 {
			return []int{32, 128}[r.Intn(2)]
		}
		return family
	}
	for tr.Len() < n {
		l := bitLen()
		switch style {
		case "spread":
			add(randAddr(r, l), r.Intn(l+1))
		case "clustered": // a few blocks, long masks: big directory buckets
			a := randAddr(r, l).AsSlice()
			bits := 20 + r.Intn(13)
			if l == 32 {
				a[0], a[1] = byte(10+r.Intn(3)), byte(r.Intn(4))
			} else {
				copy(a, []byte{0x20, 0x01, 0x0d, 0xb8, 0, byte(r.Intn(4))})
				bits = 40 + r.Intn(89)
			}
			addr, _ := netip.AddrFromSlice(a)
			add(addr, bits)
		case "nested": // every prefix a sub-block of an earlier one
			base, bits := randAddr(r, l), r.Intn(8)
			for ; bits <= l && tr.Len() < n; bits += 1 + r.Intn(l/8) {
				add(base, bits)
				if r.Intn(4) == 0 {
					base = flip(base, r.Intn(l)) // leaves the chain
				}
			}
		}
	}
	for _, l := range []int{32, 128} {
		if n < 3 || family != 0 && family != l {
			continue
		}
		zero := netip.IPv4Unspecified()
		if l == 128 {
			zero = netip.IPv6Unspecified()
		}
		add(zero, 0)
		add(randAddr(r, l), l)
		add(lastAddr(netip.PrefixFrom(zero, 0)), l)
		add(randAddr(r, l), r.Intn(l+1)) // again, with another value
		add(ps[len(ps)-1].p.Addr(), ps[len(ps)-1].p.Bits())
		if n >= 50 {
			base := randAddr(r, l)
			for bits := 0; bits <= l; bits++ {
				add(base, bits)
			}
		}
	}
	return tr, ps
}

// probes returns the addresses worth asking a table about: random ones
// of both families and, for stored prefixes, the first and last address,
// the ones just outside and one inside.
func probes(r *rand.Rand, tr *Trie[int], limit int) []netip.Addr {
	var out []netip.Addr
	tr.Walk(func(p netip.Prefix, _ int) bool {
		first, last := p.Addr(), lastAddr(p)
		inside := first
		for i := p.Bits(); i < first.BitLen(); i++ {
			if r.Intn(2) == 0 {
				inside = flip(inside, i)
			}
		}
		for _, a := range []netip.Addr{first, last, first.Prev(), last.Next(), inside} {
			if a.IsValid() {
				out = append(out, a)
			}
		}
		return len(out) < limit
	})
	for i := 0; i < 200; i++ {
		out = append(out, randAddr(r, []int{32, 128}[i%2]))
	}
	return out
}

func checkFlat(t testing.TB, tr *Trie[int], f *Flat[int], addrs []netip.Addr) {
	t.Helper()
	for _, a := range addrs {
		wp, wv, wok := tr.Lookup(a)
		gp, gv, gok := f.Lookup(a)
		if gp != wp || gv != wv || gok != wok {
			t.Fatalf("Lookup(%v): flat %v,%d,%v trie %v,%d,%v", a, gp, gv, gok, wp, wv, wok)
		}
	}
}

type visit struct {
	p netip.Prefix
	v int
}

func checkSupernets(t testing.TB, tr *Trie[int], f *Flat[int], q netip.Prefix) {
	t.Helper()
	var want, got []visit
	tr.Supernets(q, func(p netip.Prefix, v int) bool { want = append(want, visit{p, v}); return true })
	f.Supernets(q, func(p netip.Prefix, v int) bool { got = append(got, visit{p, v}); return true })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Supernets(%v): flat %v trie %v", q, got, want)
	}
	// Early stop after the first visit.
	if len(want) > 1 {
		n := 0
		f.Supernets(q, func(netip.Prefix, int) bool { n++; return false })
		if n != 1 {
			t.Fatalf("Supernets(%v) visited %d entries after the callback said stop", q, n)
		}
	}
}

// checkTable holds a Flat to the trie on every probe, as a longest
// match and as a covering walk.
func checkTable(t testing.TB, r *rand.Rand, tr *Trie[int], f *Flat[int], limit int) {
	t.Helper()
	addrs := probes(r, tr, limit)
	checkFlat(t, tr, f, addrs)
	for _, a := range addrs[:min(len(addrs), limit/5)] {
		checkSupernets(t, tr, f, netip.PrefixFrom(a, r.Intn(a.BitLen()+1))) // host bits set: both sides mask
	}
	tr.Walk(func(p netip.Prefix, _ int) bool {
		checkSupernets(t, tr, f, p)
		return true
	})
}

// Property: a Flat answers Lookup and Supernets exactly as the Trie it
// was frozen from, whatever the table's size, shape and families, and
// NewFlat over the pairs the trie was filled with builds the same table
// whatever their order.
func TestFlatMatchesTrie(t *testing.T) {
	for _, family := range []int{32, 128, 0} {
		for _, style := range []string{"spread", "clustered", "nested"} {
			for _, n := range []int{0, 1, 3, 50, 5000} {
				r := rand.New(rand.NewSource(int64(n) + int64(len(style)) + int64(family)))
				tr, ps := flatTable(r, n, style, family)
				f := tr.Freeze()
				if got := len(f.keys4) + len(f.keys6); got != tr.Len() {
					t.Fatalf("%d/%s/%d: Flat holds %d prefixes, trie %d", family, style, n, got, tr.Len())
				}
				checkTable(t, r, tr, f, 20000)
				if fmt.Sprint(*NewFlat(seq(ps))) != fmt.Sprint(*f) { // nil and empty print alike
					t.Fatalf("%d/%s/%d: NewFlat over the inserted pairs differs from Freeze", family, style, n)
				}
				r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
				shuffled := New[int]()
				for _, x := range ps {
					shuffled.Insert(x.p, x.v)
				}
				if fmt.Sprint(*NewFlat(seq(ps))) != fmt.Sprint(*shuffled.Freeze()) {
					t.Fatalf("%d/%s/%d: NewFlat over shuffled pairs differs from Freeze", family, style, n)
				}
			}
		}
	}
}

// Neither family answers the other's lookups, even from a default
// route; an IPv4-mapped IPv6 address is IPv6, as in the trie.
func TestFlatFamiliesApart(t *testing.T) {
	both := []pair{{mustPrefix("::/0"), 6}, {mustPrefix("0.0.0.0/0"), 4}}
	v4, v6 := netip.MustParseAddr("10.1.2.3"), netip.MustParseAddr("2001:db8::1")
	mapped := netip.AddrFrom16(v4.As16())
	for _, tc := range []struct {
		pairs        []pair
		want4, want6 int // 0: no match
	}{
		{both, 4, 6},
		{both[:1], 0, 6},
		{both[1:], 4, 0},
	} {
		f := NewFlat(seq(tc.pairs))
		for _, c := range []struct {
			a    netip.Addr
			want int
		}{{v4, tc.want4}, {v6, tc.want6}, {mapped, tc.want6}} {
			_, v, ok := f.Lookup(c.a)
			if ok != (c.want != 0) || v != c.want {
				t.Errorf("%v: Lookup(%v) = %d,%v, want %d", tc.pairs, c.a, v, ok, c.want)
			}
			var got []int
			f.Supernets(netip.PrefixFrom(c.a, 16), func(_ netip.Prefix, v int) bool { got = append(got, v); return true })
			if len(got) != min(1, c.want) || len(got) == 1 && got[0] != c.want {
				t.Errorf("%v: Supernets(%v/16) visited %v, want %d", tc.pairs, c.a, got, c.want)
			}
		}
	}
}

// A Flat is a copy: later writes to the Trie do not reach it.
func TestFlatIsASnapshot(t *testing.T) {
	tr := New[int]()
	tr.Insert(mustPrefix("10.0.0.0/8"), 1)
	tr.Insert(mustPrefix("2001:db8::/32"), 6)
	f := tr.Freeze()
	tr.Insert(mustPrefix("10.1.0.0/16"), 2)
	tr.Delete(mustPrefix("10.0.0.0/8"))
	tr.Delete(mustPrefix("2001:db8::/32"))
	if p, v, ok := f.Lookup(netip.MustParseAddr("10.1.2.3")); !ok || v != 1 || p != mustPrefix("10.0.0.0/8") {
		t.Fatalf("frozen Lookup = %v,%d,%v, want the /8 it was frozen with", p, v, ok)
	}
	if p, v, ok := f.Lookup(netip.MustParseAddr("2001:db8::1")); !ok || v != 6 || p != mustPrefix("2001:db8::/32") {
		t.Fatalf("frozen IPv6 Lookup = %v,%d,%v, want the /32 it was frozen with", p, v, ok)
	}
	var none *Flat[int]
	if _, _, ok := none.Lookup(netip.MustParseAddr("10.1.2.3")); ok {
		t.Fatal("nil Flat is not an empty table")
	}
	none.Supernets(mustPrefix("10.1.2.0/24"), func(netip.Prefix, int) bool {
		t.Fatal("nil Flat visited an entry")
		return false
	})
}

// FuzzFlatLookup builds a table from the input and checks both its
// frozen form and NewFlat over the same pairs against the trie, on
// addresses around every prefix in it. A record is five bytes for IPv4
// (address, then mask length below 0x80, mod 33) or seventeen for IPv6
// (the first four address bytes, a mask byte of 0x80 or more whose low
// seven bits mod 129 are the length, then the other twelve).
func FuzzFlatLookup(f *testing.F) {
	f.Add([]byte{10, 0, 0, 0, 8, 10, 1, 0, 0, 16, 10, 1, 2, 0, 24, 0, 0, 0, 0, 0, 10, 1, 2, 3, 32})
	f.Add([]byte{255, 255, 255, 255, 32, 255, 255, 255, 254, 31, 0, 0, 0, 0, 32})
	f.Add([]byte{})
	f.Add([]byte{
		0x20, 0x01, 0x0d, 0xb8, 0x80 | 32, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0x20, 0x01, 0x0d, 0xb8, 0x80 | 64, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0,
		0x20, 0x01, 0x0d, 0xb8, 0x80 | 127, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x11,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New[int]()
		var ps []pair
		for len(data) >= 5 {
			var p netip.Prefix
			if l := data[4]; l < 0x80 {
				p = netip.PrefixFrom(netip.AddrFrom4([4]byte(data[:4])), int(l)%33)
				data = data[5:]
			} else if len(data) >= 17 {
				var a [16]byte
				copy(a[:4], data[:4])
				copy(a[4:], data[5:17])
				p = netip.PrefixFrom(netip.AddrFrom16(a), int(l&0x7f)%129)
				data = data[17:]
			} else {
				break
			}
			ps = append(ps, pair{p, len(ps) + 1})
			tr.Insert(p, len(ps))
		}
		r := rand.New(rand.NewSource(int64(tr.Len())))
		checkTable(t, r, tr, tr.Freeze(), 1500)
		checkTable(t, r, tr, NewFlat(seq(ps)), 1500)
	})
}

// benchTable6 is benchTable's prefixes moved under 2001::/16, sixteen
// bits longer: every entry shares the directory's top bits, so a lookup
// binary-searches the whole table.
func benchTable6() (*Trie[int], []netip.Addr) {
	tr4, addrs4 := benchTable()
	tr := New[int]()
	to6 := func(a netip.Addr) netip.Addr {
		b := a.As4()
		return netip.AddrFrom16([16]byte{0x20, 0x01, b[0], b[1], b[2], b[3]})
	}
	tr4.Walk(func(p netip.Prefix, v int) bool {
		tr.Insert(netip.PrefixFrom(to6(p.Addr()), p.Bits()+16), v)
		return true
	})
	addrs := make([]netip.Addr, len(addrs4))
	for i, a := range addrs4 {
		addrs[i] = to6(a)
	}
	return tr, addrs
}

func BenchmarkFlatLookup(b *testing.B) {
	for _, family := range []struct {
		name  string
		table func() (*Trie[int], []netip.Addr)
	}{{"ipv4", benchTable}, {"ipv6", benchTable6}} {
		b.Run(family.name, func(b *testing.B) {
			tr, addrs := family.table()
			f := tr.Freeze()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Lookup(addrs[i%len(addrs)])
			}
		})
	}
}

func BenchmarkFreeze(b *testing.B) {
	tr, _ := benchTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Freeze()
	}
}
