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

// flatTable builds a random table of about n IPv4 prefixes in the given
// style, always with the shapes a sorted-array lookup can get wrong: a
// default route, host routes, equal starts at several lengths, and a
// chain nested 32 deep.
func flatTable(r *rand.Rand, n int, style string) *Trie[int] {
	tr := New[int]()
	add := func(a uint32, bits int) {
		tr.Insert(netip.PrefixFrom(addr4(a), bits), tr.Len()+1)
	}
	for tr.Len() < n {
		switch style {
		case "spread":
			add(r.Uint32(), r.Intn(33))
		case "clustered": // a few /16s, long masks: big directory buckets
			add(uint32(10+r.Intn(3))<<24|uint32(r.Intn(4))<<16|r.Uint32()&0xffff, 20+r.Intn(13))
		case "nested": // every prefix a sub-block of an earlier one
			base, bits := r.Uint32(), r.Intn(8)
			for ; bits <= 32 && tr.Len() < n; bits += 1 + r.Intn(4) {
				add(base, bits)
				base ^= 1 << uint(r.Intn(32)) // sometimes leaves the chain
			}
		}
	}
	if n >= 3 {
		add(0, 0)
		add(r.Uint32(), 32)
		add(0xffffffff, 32)
	}
	if n >= 50 {
		base := r.Uint32()
		for bits := 0; bits <= 32; bits++ {
			add(base, bits)
		}
	}
	return tr
}

// probes returns the addresses worth asking a table about: random ones
// and, for stored prefixes, the first and last address and the ones
// just outside.
func probes(r *rand.Rand, tr *Trie[int], limit int) []netip.Addr {
	var out []netip.Addr
	tr.Walk(func(p netip.Prefix, _ int) bool {
		if !p.Addr().Is4() {
			return true
		}
		first := key4(p.Addr())
		last := first | uint32(uint64(1)<<(32-p.Bits())-1)
		for _, a := range []uint32{first, last, first - 1, last + 1, first + (last-first)/2} {
			out = append(out, addr4(a))
		}
		return len(out) < limit
	})
	for i := 0; i < 200; i++ {
		out = append(out, addr4(r.Uint32()))
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

// Property: a Flat answers Lookup and Supernets exactly as the Trie it
// was frozen from, whatever the table's size and shape.
func TestFlatMatchesTrie(t *testing.T) {
	for _, style := range []string{"spread", "clustered", "nested"} {
		for _, n := range []int{0, 1, 3, 50, 5000} {
			r := rand.New(rand.NewSource(int64(n) + int64(len(style))))
			tr := flatTable(r, n, style)
			tr.Insert(mustPrefix("2001:db8::/32"), -1) // not in the Flat, not in its way
			f := tr.Freeze()
			if len(f.keys) != tr.Len()-1 {
				t.Fatalf("%s/%d: Flat holds %d prefixes, trie %d IPv4 ones", style, n, len(f.keys), tr.Len()-1)
			}
			addrs := probes(r, tr, 20000)
			checkFlat(t, tr, f, addrs)
			for _, a := range addrs {
				checkSupernets(t, tr, f, netip.PrefixFrom(a, r.Intn(33))) // host bits set: both sides mask
			}
			tr.Walk(func(p netip.Prefix, _ int) bool {
				if p.Addr().Is4() {
					checkSupernets(t, tr, f, p)
				}
				return true
			})
		}
	}
}

// A Flat is a copy: later writes to the Trie do not reach it.
func TestFlatIsASnapshot(t *testing.T) {
	tr := New[int]()
	tr.Insert(mustPrefix("10.0.0.0/8"), 1)
	f := tr.Freeze()
	tr.Insert(mustPrefix("10.1.0.0/16"), 2)
	tr.Delete(mustPrefix("10.0.0.0/8"))
	if p, v, ok := f.Lookup(netip.MustParseAddr("10.1.2.3")); !ok || v != 1 || p != mustPrefix("10.0.0.0/8") {
		t.Fatalf("frozen Lookup = %v,%d,%v, want the /8 it was frozen with", p, v, ok)
	}
	if _, _, ok := f.Lookup(netip.MustParseAddr("2001:db8::1")); ok {
		t.Fatal("IPv6 address matched in an IPv4-only table")
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

// FuzzFlatLookup builds a table from the input — five bytes a prefix —
// and checks the frozen form against the trie on addresses around every
// prefix in it.
func FuzzFlatLookup(f *testing.F) {
	f.Add([]byte{10, 0, 0, 0, 8, 10, 1, 0, 0, 16, 10, 1, 2, 0, 24, 0, 0, 0, 0, 0, 10, 1, 2, 3, 32})
	f.Add([]byte{255, 255, 255, 255, 32, 255, 255, 255, 254, 31, 0, 0, 0, 0, 32})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New[int]()
		for ; len(data) >= 5; data = data[5:] {
			a := netip.AddrFrom4([4]byte{data[0], data[1], data[2], data[3]})
			tr.Insert(netip.PrefixFrom(a, int(data[4])%33), tr.Len()+1)
		}
		fl := tr.Freeze()
		r := rand.New(rand.NewSource(int64(tr.Len())))
		addrs := probes(r, tr, 2000)
		checkFlat(t, tr, fl, addrs)
		for _, a := range addrs[:min(len(addrs), 300)] {
			checkSupernets(t, tr, fl, netip.PrefixFrom(a, r.Intn(33)))
		}
	})
}

func BenchmarkFlatLookup(b *testing.B) {
	tr, addrs := benchTable()
	f := tr.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(addrs[i%len(addrs)])
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
