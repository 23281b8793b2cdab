// Package trie holds the prefix indexes behind the tables that answer
// covering queries — the data plane's FIB, the server's allocation
// table and the compiled prefix filter: longest-prefix match for
// forwarding, and the walk up through every covering prefix that
// filters and origin validation need. The RIBs are exact-match only and
// use hash tables instead (internal/rib). IPv4 and IPv6 share every
// index; which family an address belongs to is decided here and
// nowhere else.
//
// A Flat is the immutable form: sorted arrays built once from (prefix,
// value) pairs and safe for concurrent use, so per-packet and
// per-verdict lookups read one through an atomic pointer or an
// immutable owner without a lock. A Trie is the mutable form, a binary
// radix (Patricia-style) trie for the one table that changes route by
// route, the FIB. It is not safe for concurrent use; its owner guards it
// with a lock and publishes a Flat of it (Freeze) for readers.
package trie

import (
	"fmt"
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

// commonPrefixLen returns the length of the longest common prefix of a
// and b, capped at max. Word-wide XOR plus a leading-zero count replaces
// the old byte loop (and its AsSlice allocations) on the insert path.
func commonPrefixLen(a, b netip.Addr, maxLen int) int {
	if a.Is4() && b.Is4() {
		return min(keyOf4(a).common(keyOf4(b)), maxLen)
	}
	return min(keyOf6(a).common(keyOf6(b)), maxLen)
}

// Insert adds or replaces the value for prefix p. It reports whether the
// prefix was newly inserted (false means an existing value was replaced).
func (t *Trie[V]) Insert(p netip.Prefix, v V) bool {
	if !p.IsValid() {
		panic(fmt.Sprintf("trie: invalid prefix %v", p))
	}
	p = p.Masked()
	n := t.rootFor(p)
	for {
		if n.prefix == p {
			added := !n.hasValue
			n.value, n.hasValue = v, true
			if added {
				t.size++
			}
			return added
		}
		// p is strictly longer than n.prefix and contained in it.
		bit := bitAt(p.Addr(), n.prefix.Bits())
		child := n.children[bit]
		if child == nil {
			nn := &node[V]{prefix: p, value: v, hasValue: true}
			n.children[bit] = nn
			t.size++
			return true
		}
		if child.prefix.Contains(p.Addr()) && child.prefix.Bits() <= p.Bits() {
			n = child
			continue
		}
		// Split: find the common prefix of child.prefix and p.
		cl := commonPrefixLen(child.prefix.Addr(), p.Addr(), min(child.prefix.Bits(), p.Bits()))
		joint := netip.PrefixFrom(p.Addr(), cl).Masked()
		mid := &node[V]{prefix: joint}
		n.children[bit] = mid
		mid.children[bitAt(child.prefix.Addr(), cl)] = child
		if joint == p {
			mid.value, mid.hasValue = v, true
			t.size++
			return true
		}
		nn := &node[V]{prefix: p, value: v, hasValue: true}
		mid.children[bitAt(p.Addr(), cl)] = nn
		t.size++
		return true
	}
}

// Delete removes prefix p, reporting whether it was present. It leaves
// no structure behind: every valueless node other than the two roots
// has two children before and after, so an emptied trie is two roots
// and a trie of n prefixes has fewer than 2n nodes besides them.
func (t *Trie[V]) Delete(p netip.Prefix) bool {
	if !p.IsValid() {
		return false
	}
	p = p.Masked()
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
			t.size--
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
// specific stored prefix containing it: the last of the host route's
// supernets.
func (t *Trie[V]) Lookup(addr netip.Addr) (best netip.Prefix, v V, found bool) {
	t.Supernets(netip.PrefixFrom(addr, addr.BitLen()), func(p netip.Prefix, w V) bool {
		best, v, found = p, w, true
		return true
	})
	return best, v, found
}

// Supernets visits every stored prefix that covers all of p — p's
// exact entry included, if stored — from the least specific (shortest
// mask) to the most specific. The callback returns false to stop
// early.
func (t *Trie[V]) Supernets(p netip.Prefix, fn func(netip.Prefix, V) bool) {
	if !p.IsValid() {
		return
	}
	p = p.Masked()
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
	_ = walk(t.root4, fn) && walk(t.root6, fn)
}

// Freeze returns t's prefixes as a Flat: a walk, then NewFlat, whose
// sort finds them already in order.
func (t *Trie[V]) Freeze() *Flat[V] { return build(t.Walk, t.size) }

func walk[V any](n *node[V], fn func(netip.Prefix, V) bool) bool {
	return n == nil || (!n.hasValue || fn(n.prefix, n.value)) && walk(n.children[0], fn) && walk(n.children[1], fn)
}
