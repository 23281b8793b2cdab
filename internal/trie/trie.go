// Package trie implements a binary radix (Patricia-style) trie keyed by
// IP prefixes. It is the index structure behind the tables that answer
// covering queries — the data plane's FIB, the server's allocation
// table and the compiled prefix filter: it supports exact-match
// insert/delete, longest-prefix match for forwarding, and the walk up
// through every covering prefix that filters and origin validation
// need. The RIBs are exact-match only and use hash tables instead
// (internal/rib).
//
// A Trie is not safe for concurrent use; callers guard it
// with their own locks so that a lookup and the decision that follows it
// stay atomic. A Flat — the trie's IPv4 prefixes frozen into sorted
// arrays by Freeze — is: it never changes, so per-packet lookups (the
// FIB, the spoof filter) read one through an atomic pointer without a
// lock, and the writer publishes a new one when the table has changed.
package trie

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
)

// node is a trie vertex. Internal vertices may carry no value; a vertex
// with hasValue set corresponds to an inserted prefix.
type node[V any] struct {
	prefix   netip.Prefix
	children [2]*node[V]
	value    V
	hasValue bool
}

// Trie maps IP prefixes to values of type V. IPv4 and IPv6 prefixes live
// in separate roots so mixed-family inserts never collide.
type Trie[V any] struct {
	root4 *node[V]
	root6 *node[V]
	size  int
	size4 int // the IPv4 share of size: what Freeze sizes a Flat by
}

// New returns an empty trie.
func New[V any]() *Trie[V] {
	return &Trie[V]{
		root4: &node[V]{prefix: netip.PrefixFrom(netip.IPv4Unspecified(), 0)},
		root6: &node[V]{prefix: netip.PrefixFrom(netip.IPv6Unspecified(), 0)},
	}
}

// Len reports the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.size }

// resize records that a prefix of p's family was added (+1) or removed
// (-1).
func (t *Trie[V]) resize(p netip.Prefix, d int) {
	t.size += d
	if p.Addr().Is4() {
		t.size4 += d
	}
}

func (t *Trie[V]) rootFor(p netip.Prefix) *node[V] {
	if p.Addr().Is4() {
		return t.root4
	}
	return t.root6
}

// bitAt returns bit i (0-indexed from the most significant bit) of addr.
// As4/As16 return arrays by value, so walking a million-entry table does
// not allocate a byte slice per node visited.
func bitAt(addr netip.Addr, i int) int {
	if addr.Is4() {
		b := addr.As4()
		return int(b[i>>3]>>(7-uint(i&7))) & 1
	}
	b := addr.As16()
	return int(b[i>>3]>>(7-uint(i&7))) & 1
}

// canon normalizes a prefix to its masked, canonical form. Un-normalized
// prefixes (host bits set) would otherwise make equal routes look
// distinct.
func canon(p netip.Prefix) netip.Prefix { return p.Masked() }

// commonPrefixLen returns the length of the longest common prefix of a
// and b, capped at max. Word-wide XOR plus a leading-zero count replaces
// the old byte loop (and its AsSlice allocations) on the insert path.
func commonPrefixLen(a, b netip.Addr, maxLen int) int {
	var n int
	if a.Is4() && b.Is4() {
		n = bits.LeadingZeros32(key4(a) ^ key4(b))
	} else {
		ab, bb := a.As16(), b.As16()
		if x := binary.BigEndian.Uint64(ab[:8]) ^ binary.BigEndian.Uint64(bb[:8]); x != 0 {
			n = bits.LeadingZeros64(x)
		} else {
			n = 64 + bits.LeadingZeros64(binary.BigEndian.Uint64(ab[8:])^binary.BigEndian.Uint64(bb[8:]))
		}
	}
	if n > maxLen {
		n = maxLen
	}
	return n
}

// Insert adds or replaces the value for prefix p. It reports whether the
// prefix was newly inserted (false means an existing value was replaced).
func (t *Trie[V]) Insert(p netip.Prefix, v V) bool {
	if !p.IsValid() {
		panic(fmt.Sprintf("trie: invalid prefix %v", p))
	}
	p = canon(p)
	n := t.rootFor(p)
	for {
		if n.prefix == p {
			added := !n.hasValue
			n.value, n.hasValue = v, true
			if added {
				t.resize(p, 1)
			}
			return added
		}
		// p is strictly longer than n.prefix and contained in it.
		bit := bitAt(p.Addr(), n.prefix.Bits())
		child := n.children[bit]
		if child == nil {
			nn := &node[V]{prefix: p, value: v, hasValue: true}
			n.children[bit] = nn
			t.resize(p, 1)
			return true
		}
		if child.prefix.Contains(p.Addr()) && child.prefix.Bits() <= p.Bits() {
			n = child
			continue
		}
		// Split: find the common prefix of child.prefix and p.
		cl := commonPrefixLen(child.prefix.Addr(), p.Addr(), min(child.prefix.Bits(), p.Bits()))
		joint := canon(netip.PrefixFrom(p.Addr(), cl))
		mid := &node[V]{prefix: joint}
		n.children[bit] = mid
		mid.children[bitAt(child.prefix.Addr(), cl)] = child
		if joint == p {
			mid.value, mid.hasValue = v, true
			t.resize(p, 1)
			return true
		}
		nn := &node[V]{prefix: p, value: v, hasValue: true}
		mid.children[bitAt(p.Addr(), cl)] = nn
		t.resize(p, 1)
		return true
	}
}

// Get returns the value stored at exactly prefix p.
func (t *Trie[V]) Get(p netip.Prefix) (V, bool) {
	var zero V
	if !p.IsValid() {
		return zero, false
	}
	p = canon(p)
	n := t.rootFor(p)
	for n != nil {
		if n.prefix == p {
			if n.hasValue {
				return n.value, true
			}
			return zero, false
		}
		if !n.prefix.Contains(p.Addr()) || n.prefix.Bits() > p.Bits() {
			return zero, false
		}
		n = n.children[bitAt(p.Addr(), n.prefix.Bits())]
	}
	return zero, false
}

// Delete removes prefix p, reporting whether it was present. It leaves
// no structure behind: every valueless node other than the two roots
// has two children before and after, so an emptied trie is two roots
// and a trie of n prefixes has fewer than 2n nodes besides them.
func (t *Trie[V]) Delete(p netip.Prefix) bool {
	if !p.IsValid() {
		return false
	}
	p = canon(p)
	n := t.rootFor(p)
	// slot is the child pointer that holds n, up the node it belongs to
	// and upSlot the pointer that holds up; nil for a root, which is
	// never unlinked.
	var up *node[V]
	var slot, upSlot **node[V]
	for n != nil {
		if n.prefix == p {
			if !n.hasValue {
				return false
			}
			var zero V
			n.value, n.hasValue = zero, false
			t.resize(p, -1)
			// A valueless node stays only as a root or as the joint of
			// two subtrees. Left with one child, that child takes its
			// place; left with none it goes, and the node above, if it
			// was a joint only because of n, goes the same way.
			for slot != nil && !n.hasValue && (n.children[0] == nil || n.children[1] == nil) {
				child := n.children[0]
				if child == nil {
					child = n.children[1]
				}
				*slot = child
				if child != nil {
					break
				}
				n, slot = up, upSlot
			}
			return true
		}
		if !n.prefix.Contains(p.Addr()) || n.prefix.Bits() > p.Bits() {
			return false
		}
		up, upSlot = n, slot
		slot = &n.children[bitAt(p.Addr(), n.prefix.Bits())]
		n = *slot
	}
	return false
}

// Lookup performs a longest-prefix match for addr, returning the most
// specific stored prefix containing it.
func (t *Trie[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	var (
		bestP  netip.Prefix
		bestV  V
		found  bool
		target = netip.PrefixFrom(addr, addr.BitLen())
	)
	n := t.rootFor(target)
	for n != nil {
		if !n.prefix.Contains(addr) {
			break
		}
		if n.hasValue {
			bestP, bestV, found = n.prefix, n.value, true
		}
		if n.prefix.Bits() == addr.BitLen() {
			break
		}
		n = n.children[bitAt(addr, n.prefix.Bits())]
	}
	return bestP, bestV, found
}

// LookupPrefix returns the most specific stored prefix that covers all
// of p (i.e. p's longest-prefix match as a whole block).
func (t *Trie[V]) LookupPrefix(p netip.Prefix) (netip.Prefix, V, bool) {
	p = canon(p)
	var (
		bestP netip.Prefix
		bestV V
		found bool
	)
	n := t.rootFor(p)
	for n != nil {
		if !n.prefix.Contains(p.Addr()) || n.prefix.Bits() > p.Bits() {
			break
		}
		if n.hasValue {
			bestP, bestV, found = n.prefix, n.value, true
		}
		if n.prefix.Bits() == p.Bits() {
			break
		}
		n = n.children[bitAt(p.Addr(), n.prefix.Bits())]
	}
	return bestP, bestV, found
}

// Supernets visits every stored prefix that covers all of p — p's
// exact entry included, if stored — from the least specific (shortest
// mask) to the most specific. The callback returns false to stop
// early. This is the primitive behind compiled prefix filters and
// origin (ROA) validation, where a match may live at any covering
// aggregate, not just the longest one that LookupPrefix reports.
func (t *Trie[V]) Supernets(p netip.Prefix, fn func(netip.Prefix, V) bool) {
	if !p.IsValid() {
		return
	}
	p = canon(p)
	n := t.rootFor(p)
	for n != nil {
		if !n.prefix.Contains(p.Addr()) || n.prefix.Bits() > p.Bits() {
			return
		}
		if n.hasValue && !fn(n.prefix, n.value) {
			return
		}
		if n.prefix.Bits() == p.Bits() {
			return
		}
		n = n.children[bitAt(p.Addr(), n.prefix.Bits())]
	}
}

// Walk visits every stored prefix in lexicographic (trie) order. The
// callback returns false to stop early. Walk visits IPv4 before IPv6.
func (t *Trie[V]) Walk(fn func(netip.Prefix, V) bool) {
	if !walk(t.root4, fn) {
		return
	}
	walk(t.root6, fn)
}

func walk[V any](n *node[V], fn func(netip.Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.hasValue {
		if !fn(n.prefix, n.value) {
			return false
		}
	}
	return walk(n.children[0], fn) && walk(n.children[1], fn)
}
