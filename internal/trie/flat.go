package trie

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
)

// Flat is an immutable longest-prefix-match table over the IPv4
// prefixes of a Trie, built by Freeze. It holds no pointers of its own
// and never changes after Freeze returns, so any number of goroutines
// may read one without a lock; a writer that changes the Trie publishes
// a fresh Flat (behind an atomic.Pointer) instead of editing this one.
//
// The stored prefixes are one array sorted by start address, shorter
// mask first among equal starts — the order an in-order walk of the
// bit trie produces. Stored prefixes nest or are disjoint, so the
// longest match of an address is always the last entry starting at or
// before it, or one of that entry's stored ancestors: an entry that
// sorts at or before the address and contains it contains every later
// start up to the address too. A lookup is therefore a directory probe
// on the address's top bits, a short binary search for that
// predecessor, and a walk up the ancestor links until one contains the
// address. Supernets is the same walk without the early stop.
//
// The arrays are parallel rather than one array of structs so the
// search touches only the densely packed start addresses, whatever the
// size of V. With a pointer-sized V an entry costs 16 bytes plus about
// one byte of directory (a bucket per four entries): memory follows the
// table, so a three-route router gets a three-entry Flat.
//
// IPv6 prefixes are not represented: IPv6 lookups stay on the Trie. A
// nil *Flat is an empty table.
type Flat[V any] struct {
	keys []uint32 // start address of each prefix
	meta []uint32 // mask length << flatLenShift | 1 + index of the closest stored ancestor (0: none)
	vals []V
	// dir[b] is the number of entries whose start address has top bits
	// below b, so the predecessor of an address with top bits b lies in
	// [dir[b]-1, dir[b+1]).
	dir   []uint32
	shift uint8 // 32 - directory bits
}

const (
	flatLenShift = 26
	flatUpMask   = 1<<flatLenShift - 1
)

// Freeze returns the Flat form of t's IPv4 prefixes, in time and memory
// proportional to their number. It returns nil for a table too large
// for the 26-bit ancestor links (more than 67 million IPv4 prefixes);
// callers keep using the Trie then, as they do while a Flat is stale.
func (t *Trie[V]) Freeze() *Flat[V] {
	n := t.size4
	if n >= flatUpMask {
		return nil
	}
	f := &Flat[V]{keys: make([]uint32, 0, n), meta: make([]uint32, 0, n), vals: make([]V, 0, n)}
	f.fill(t.root4, 0)

	dirBits := bits.Len(uint(n) / 4)
	f.shift = uint8(32 - dirBits)
	f.dir = make([]uint32, 1<<dirBits+1)
	i := 0
	for b := range f.dir {
		for i < n && f.keys[i]>>f.shift < uint32(b) {
			i++
		}
		f.dir[b] = uint32(i)
	}
	return f
}

// fill appends the stored prefixes under n in trie order: a node before
// its children, the 0 branch before the 1 branch. up is 1 + the index of
// the closest stored ancestor.
func (f *Flat[V]) fill(n *node[V], up uint32) {
	if n == nil {
		return
	}
	if n.hasValue {
		f.keys = append(f.keys, key4(n.prefix.Addr()))
		f.meta = append(f.meta, uint32(n.prefix.Bits())<<flatLenShift|up)
		f.vals = append(f.vals, n.value)
		up = uint32(len(f.keys))
	}
	f.fill(n.children[0], up)
	f.fill(n.children[1], up)
}

func key4(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// pred returns 1 + the index of the last entry starting at or before
// addr, 0 if there is none.
func (f *Flat[V]) pred(addr uint32) uint32 {
	b := addr >> f.shift
	lo, hi := f.dir[b], f.dir[b+1]
	for lo < hi {
		mid := (lo + hi) >> 1
		if f.keys[mid] <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Lookup performs a longest-prefix match for addr, as Trie.Lookup does.
// An address that is not IPv4 matches nothing.
func (f *Flat[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	if f != nil && addr.Is4() {
		a := key4(addr)
		for i := f.pred(a); i > 0; i = f.meta[i-1] & flatUpMask {
			l := f.meta[i-1] >> flatLenShift
			if (a^f.keys[i-1])>>(32-l) == 0 {
				return netip.PrefixFrom(addr, int(l)).Masked(), f.vals[i-1], true
			}
		}
	}
	var zero V
	return netip.Prefix{}, zero, false
}

// Supernets visits every stored prefix that covers all of p, from the
// least specific to the most specific, as Trie.Supernets does. A prefix
// that is not IPv4 is covered by nothing.
func (f *Flat[V]) Supernets(p netip.Prefix, fn func(netip.Prefix, V) bool) {
	if f == nil || !p.IsValid() || !p.Addr().Is4() {
		return
	}
	p = canon(p)
	a, plen := key4(p.Addr()), uint32(p.Bits())
	// The walk finds the covering entries most specific first; the
	// callback wants them the other way round.
	var stack [33]uint32
	n := 0
	for i := f.pred(a); i > 0; i = f.meta[i-1] & flatUpMask {
		l := f.meta[i-1] >> flatLenShift
		if l <= plen && (a^f.keys[i-1])>>(32-l) == 0 {
			stack[n] = i - 1
			n++
		}
	}
	for n > 0 {
		n--
		i := stack[n]
		l := int(f.meta[i] >> flatLenShift)
		if !fn(netip.PrefixFrom(p.Addr(), l).Masked(), f.vals[i]) {
			return
		}
	}
}
