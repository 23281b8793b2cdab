package trie

import (
	"cmp"
	"encoding/binary"
	"iter"
	"math/bits"
	"net/netip"
	"slices"
)

// Flat is an immutable longest-prefix-match table over IPv4 and IPv6
// prefixes, built by NewFlat from (prefix, value) pairs or by Freeze
// from a Trie. It never changes once built, so any number of goroutines
// may read one without a lock; a writer publishes a fresh Flat (behind
// an atomic.Pointer) instead of editing this one.
//
// Each family's prefixes are one array sorted by start address,
// shorter mask first among equal starts — the order an in-order walk of
// the bit trie produces. IPv4 keys are 4 bytes and IPv6 keys 16, and an
// address is looked up among its own family's keys only, so neither
// family answers the other's lookups. Stored prefixes nest or are
// disjoint, so the longest match of an address is always the last entry
// starting at or before it, or one of that entry's stored ancestors: an
// entry that sorts at or before the address and contains it contains
// every later start up to the address too. A lookup is therefore a
// directory probe on the address's top bits, a short binary search for
// that predecessor, and a walk up the ancestor links until one contains
// the address. Supernets is the same walk from p's address, past
// entries longer than p; every ancestor of the first one it keeps
// covers p too.
//
// The arrays are parallel rather than one array of structs so the
// search touches only the densely packed start addresses, whatever the
// size of V. With a pointer-sized V an IPv4 entry costs 17 bytes plus
// about one byte of directory (a bucket per four entries): memory
// follows the table, so a three-route router gets a three-entry Flat.
// Indexes are 32 bits wide, which bounds a Flat at four billion entries
// (some 70 GB of IPv4 ones). A nil *Flat is an empty table.
type Flat[V any] struct {
	keys4 []key4 // start address of each IPv4 prefix
	keys6 []key6 // start address of each IPv6 prefix
	// The rest is per entry, IPv4 first: keys6[i] is entry len(keys4)+i.
	lens       []uint8  // mask length
	up         []uint32 // 1 + index of the closest stored ancestor (0: none)
	vals       []V
	dir4, dir6 directory
}

// directory narrows the search for an address's predecessor among one
// family's keys: at[b] is the number of keys whose top bits are below b,
// so the predecessor of an address with top bits b lies in
// [at[b]-1, at[b+1]).
type directory struct {
	at    []uint32
	shift uint8 // 64 - directory bits, applied to an address's first 64 bits
}

// key4 and key6 are an IPv4 and an IPv6 address as big-endian integers,
// so that integer order is address order.
type (
	key4 uint32
	key6 struct{ hi, lo uint64 }
)

// key is what sorting, linking and indexing a family's entries need of
// its key type.
type key[K any] interface {
	comparable
	compare(K) int
	common(K) int // the length of the longest common prefix
	top() uint64  // the first 64 bits, which the directory indexes
}

func keyOf4(a netip.Addr) key4 {
	b := a.As4()
	return key4(binary.BigEndian.Uint32(b[:]))
}

func keyOf6(a netip.Addr) key6 {
	b := a.As16()
	return key6{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

func (a key4) compare(b key4) int { return cmp.Compare(a, b) }
func (a key4) common(b key4) int  { return bits.LeadingZeros32(uint32(a ^ b)) }
func (a key4) top() uint64        { return uint64(a) << 32 }

func (a key6) compare(b key6) int {
	if a.hi != b.hi {
		return cmp.Compare(a.hi, b.hi)
	}
	return cmp.Compare(a.lo, b.lo)
}

func (a key6) common(b key6) int {
	if x := a.hi ^ b.hi; x != 0 {
		return bits.LeadingZeros64(x)
	}
	return 64 + bits.LeadingZeros64(a.lo^b.lo)
}

func (a key6) top() uint64 { return a.hi }

// entry is one prefix on its way into a Flat; its value is vals[i].
type entry[K any] struct {
	key  K
	bits uint8
	i    uint32
}

// NewFlat builds a Flat from (prefix, value) pairs given in any order,
// in O(n log n) time and memory proportional to n. Each prefix is
// masked, invalid ones are skipped, and of pairs that name one prefix
// the last wins, as with repeated Trie.Insert.
func NewFlat[V any](pairs iter.Seq2[netip.Prefix, V]) *Flat[V] { return build(pairs, 0) }

// build is NewFlat with room made for n pairs.
func build[V any](pairs iter.Seq2[netip.Prefix, V], n int) *Flat[V] {
	es4 := make([]entry[key4], 0, n)
	var es6 []entry[key6]
	vals := make([]V, 0, n)
	for p, v := range pairs {
		if !p.IsValid() {
			continue
		}
		a, l, i := p.Masked().Addr(), uint8(p.Bits()), uint32(len(vals))
		if a.Is4() {
			es4 = append(es4, entry[key4]{keyOf4(a), l, i})
		} else {
			es6 = append(es6, entry[key6]{keyOf6(a), l, i})
		}
		vals = append(vals, v)
	}
	f := &Flat[V]{lens: make([]uint8, 0, len(vals)), vals: make([]V, 0, len(vals))}
	f.keys4, f.keys6 = fill(f, es4, vals), fill(f, es6, vals)
	n4 := len(f.keys4)
	f.up = make([]uint32, len(f.lens))
	f.dir4, f.dir6 = index(f.keys4, f.lens, f.up, 0), index(f.keys6, f.lens[n4:], f.up[n4:], n4)
	return f
}

// fill sorts one family's entries by prefix, appends their lengths and
// values to f — for a prefix given more than once, the last — and
// returns their keys.
func fill[K key[K], V any](f *Flat[V], es []entry[K], vals []V) []K {
	slices.SortFunc(es, func(a, b entry[K]) int {
		return cmp.Or(a.key.compare(b.key), int(a.bits)-int(b.bits), cmp.Compare(a.i, b.i))
	})
	keys := make([]K, 0, len(es))
	for j, e := range es {
		if j+1 == len(es) || es[j+1].key != e.key || es[j+1].bits != e.bits {
			keys = append(keys, e.key)
			f.lens, f.vals = append(f.lens, e.bits), append(f.vals, vals[e.i])
		}
	}
	return keys
}

// index links one family's entries, whose share of the Flat's arrays
// starts at entry base, to their closest stored ancestors, and returns
// the directory over their keys.
func index[K key[K]](keys []K, lens []uint8, up []uint32, base int) directory {
	// open holds the entries that may still contain a later one,
	// innermost last: in sorted order a prefix's descendants follow it
	// before anything disjoint from it does.
	var open []int
	for i, k := range keys {
		for len(open) > 0 && k.common(keys[open[len(open)-1]]) < int(lens[open[len(open)-1]]) {
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			up[i] = uint32(base + open[len(open)-1] + 1)
		}
		open = append(open, i)
	}

	n := len(keys)
	dirBits := bits.Len(uint(n) / 4)
	d := directory{at: make([]uint32, 1<<dirBits+1), shift: uint8(64 - dirBits)}
	i := 0
	for b := range d.at {
		for i < n && keys[i].top()>>d.shift < uint64(b) {
			i++
		}
		d.at[b] = uint32(i)
	}
	return d
}

// bucket is the index range of the directory bucket for an address
// whose first 64 bits are top.
func (d *directory) bucket(top uint64) (uint32, uint32) {
	b := top >> d.shift
	return d.at[b], d.at[b+1]
}

// pred4 returns 1 + the index of the last IPv4 entry starting at or
// before k, 0 if there is none.
func (f *Flat[V]) pred4(k key4) uint32 {
	lo, hi := f.dir4.bucket(k.top())
	for lo < hi {
		if mid := (lo + hi) >> 1; f.keys4[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find returns 1 + the index of the longest stored prefix that contains
// a, 0 if there is none.
func (f *Flat[V]) find(a netip.Addr) uint32 {
	if a.Is4() {
		k := keyOf4(a)
		i := f.pred4(k)
		for i > 0 && (k^f.keys4[i-1])>>(32-f.lens[i-1]) != 0 {
			i = f.up[i-1]
		}
		return i
	}
	// pred4's search over keys6, then the same walk.
	k, n4 := keyOf6(a), uint32(len(f.keys4))
	lo, hi := f.dir6.bucket(k.top())
	for lo < hi {
		mid := (lo + hi) >> 1
		if m := f.keys6[mid]; m.hi < k.hi || m.hi == k.hi && m.lo <= k.lo {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	i := n4 + lo
	for i > 0 && k.common(f.keys6[i-1-n4]) < int(f.lens[i-1]) {
		i = f.up[i-1]
	}
	return i
}

// Lookup performs a longest-prefix match for addr, as Trie.Lookup does.
func (f *Flat[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	if f != nil && addr.Is4() {
		// find's IPv4 half, kept in line: one call deeper costs the
		// per-packet lookup about a tenth.
		k := keyOf4(addr)
		for i := f.pred4(k); i > 0; i = f.up[i-1] {
			if l := f.lens[i-1]; (k^f.keys4[i-1])>>(32-l) == 0 {
				return netip.PrefixFrom(addr, int(l)).Masked(), f.vals[i-1], true
			}
		}
	} else if f != nil && addr.IsValid() {
		if i := f.find(addr); i > 0 {
			return netip.PrefixFrom(addr, int(f.lens[i-1])).Masked(), f.vals[i-1], true
		}
	}
	var zero V
	return netip.Prefix{}, zero, false
}

// Supernets visits every stored prefix that covers all of p, from the
// least specific to the most specific, as Trie.Supernets does.
func (f *Flat[V]) Supernets(p netip.Prefix, fn func(netip.Prefix, V) bool) {
	if f == nil || !p.IsValid() {
		return
	}
	i := f.find(p.Addr())
	for i > 0 && int(f.lens[i-1]) > p.Bits() {
		i = f.up[i-1]
	}
	f.visit(p.Addr(), i, fn)
}

// visit calls fn on entry i-1's stored ancestors and then on the entry
// itself, stopping when fn returns false; it reports whether fn never
// did. a is any address inside entry i-1.
func (f *Flat[V]) visit(a netip.Addr, i uint32, fn func(netip.Prefix, V) bool) bool {
	return i == 0 || f.visit(a, f.up[i-1], fn) && fn(netip.PrefixFrom(a, int(f.lens[i-1])).Masked(), f.vals[i-1])
}
