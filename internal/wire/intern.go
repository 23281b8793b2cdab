package wire

// Attribute interning: the mux relays every route from every upstream
// to every client without rewriting attributes, so the overwhelmingly
// common case is the same attribute set appearing over and over — once
// per NLRI of a fanned-out table, and again on every churny re-announce
// or replay. Interning stores each distinct canonical attribute set
// once and hands every holder the same pointer, so resident attribute
// memory scales O(distinct attr sets) instead of O(routes stored), and
// equality along the hot path (batch grouping, graceful re-announce
// checks) degenerates to a pointer compare.
//
// Immutability contract: an *Attrs passed to Intern is frozen — the
// caller must not mutate it (or the returned pointer) afterwards. The
// same pointer may be shared by an Adj-RIB-In, every client's fan-out
// queue, a collector's archive, and an in-flight UPDATE. Code that
// needs to transform attributes (policy, vetting) must Clone first and
// may re-intern the result.

import (
	"net/netip"
	"sync"
	"sync/atomic"
)

// InternTable is a concurrent canonicalizing store of attribute sets.
// The zero value is not usable; call NewInternTable.
type InternTable struct {
	mu sync.RWMutex
	// canon is the identity fast path: pointers already interned resolve
	// without hashing. Re-interning an Adj-RIB route that the session
	// layer interned is the common case.
	canon map[*Attrs]struct{}
	// buckets maps canonical hash → attribute sets with that hash,
	// discriminated by Attrs.Equal.
	buckets map[uint64][]*Attrs

	hits, misses atomic.Uint64
}

// NewInternTable returns an empty intern table.
func NewInternTable() *InternTable {
	return &InternTable{
		canon:   make(map[*Attrs]struct{}),
		buckets: make(map[uint64][]*Attrs),
	}
}

// Intern returns the canonical pointer for a's attribute set, storing a
// itself if the set is new. A nil table or nil attrs passes through
// unchanged. On return, a (and the result) are frozen per the package
// immutability contract.
func (t *InternTable) Intern(a *Attrs) *Attrs {
	if t == nil || a == nil {
		return a
	}
	t.mu.RLock()
	if _, ok := t.canon[a]; ok {
		t.mu.RUnlock()
		t.hits.Add(1)
		return a
	}
	h := a.canonicalHash()
	c := t.find(a, h)
	t.mu.RUnlock()
	if c == nil {
		t.mu.Lock()
		// Re-check: another goroutine may have interned an equal set
		// while the lock was released.
		if c = t.find(a, h); c == nil {
			t.buckets[h] = append(t.buckets[h], a)
			t.canon[a] = struct{}{}
			t.mu.Unlock()
			t.misses.Add(1)
			return a
		}
		t.mu.Unlock()
	}
	t.hits.Add(1)
	return c
}

// Lookup returns the canonical pointer for a's attribute set if the
// table holds it (counted as a hit), nil if not. Unlike Intern it never
// stores, retains or returns a, so a may be a scratch value on the
// caller's stack: a caller whose attribute sets are nearly always known
// already makes a copy worth keeping only on a miss.
func (t *InternTable) Lookup(a *Attrs) *Attrs {
	t.mu.RLock()
	c := t.find(a, a.canonicalHash())
	t.mu.RUnlock()
	if c != nil {
		t.hits.Add(1)
	}
	return c
}

// find returns the stored set Equal to a, whose canonical hash is h, or
// nil. Callers hold t.mu.
func (t *InternTable) find(a *Attrs, h uint64) *Attrs {
	for _, c := range t.buckets[h] {
		if c.Equal(a) {
			return c
		}
	}
	return nil
}

// Len reports how many distinct attribute sets the table holds.
func (t *InternTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.canon)
}

// Stats reports lookup hits (an equal set was already present) and
// misses (a new set was stored).
func (t *InternTable) Stats() (hits, misses uint64) {
	return t.hits.Load(), t.misses.Load()
}

// ---------------------------------------------------------------------
// Canonical equality and hashing
//
// Two attribute sets are Equal exactly when they marshal to the same
// canonical wire form under Options{AS4: true} (the fuzz target
// FuzzAttrsEqual holds this ⟺ invariant against the real encoder).
// That means Equal looks through representation details the encoder
// normalizes away: empty AS_PATH segments are skipped, unknown
// transitive attributes compare by their canonical flag form (PARTIAL
// forced on, EXTENDED-LENGTH derived from the value length), and
// MED/LOCAL_PREF values are ignored when their presence bit is off.

// canonUnknownFlags returns the flag byte the encoder actually emits
// for an unknown transitive attribute with the given value length.
func canonUnknownFlags(flags uint8, vlen int) uint8 {
	f := (flags | flagPartial) &^ flagExtLen
	if vlen > 255 {
		f |= flagExtLen
	}
	return f
}

// segsEqual compares AS_PATH segment lists, skipping empty segments on
// both sides (the encoder drops them).
func segsEqual(a, b []Segment) bool {
	i, j := 0, 0
	for {
		for i < len(a) && len(a[i].ASNs) == 0 {
			i++
		}
		for j < len(b) && len(b[j].ASNs) == 0 {
			j++
		}
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		if a[i].Type != b[j].Type || len(a[i].ASNs) != len(b[j].ASNs) {
			return false
		}
		for k, asn := range a[i].ASNs {
			if b[j].ASNs[k] != asn {
				return false
			}
		}
		i++
		j++
	}
}

// Equal reports whether a and b encode to the identical canonical wire
// form (see the commentary above). Both operands may be nil; two nils
// are equal.
func (a *Attrs) Equal(b *Attrs) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Origin != b.Origin || a.NextHop != b.NextHop || a.Atomic != b.Atomic {
		return false
	}
	if a.HasMED != b.HasMED || (a.HasMED && a.MED != b.MED) {
		return false
	}
	if a.HasLocalPref != b.HasLocalPref || (a.HasLocalPref && a.LocalPref != b.LocalPref) {
		return false
	}
	if (a.Aggregator == nil) != (b.Aggregator == nil) {
		return false
	}
	if a.Aggregator != nil && *a.Aggregator != *b.Aggregator {
		return false
	}
	if !segsEqual(a.ASPath, b.ASPath) {
		return false
	}
	if len(a.Communities) != len(b.Communities) {
		return false
	}
	for i, c := range a.Communities {
		if b.Communities[i] != c {
			return false
		}
	}
	if len(a.Unknown) != len(b.Unknown) {
		return false
	}
	for i, u := range a.Unknown {
		v := b.Unknown[i]
		if u.Code != v.Code || len(u.Value) != len(v.Value) ||
			canonUnknownFlags(u.Flags, len(u.Value)) != canonUnknownFlags(v.Flags, len(v.Value)) {
			return false
		}
		for k, x := range u.Value {
			if v.Value[k] != x {
				return false
			}
		}
	}
	return true
}

// FNV-1a, inlined so hashing allocates nothing.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func fnv32(h uint64, v uint32) uint64 {
	h = fnvByte(h, byte(v>>24))
	h = fnvByte(h, byte(v>>16))
	h = fnvByte(h, byte(v>>8))
	return fnvByte(h, byte(v))
}

// canonicalHash hashes the canonical form, consistent with Equal:
// Equal(a, b) implies a.canonicalHash() == b.canonicalHash().
func (a *Attrs) canonicalHash() uint64 {
	h := fnvOffset
	h = fnvByte(h, byte(a.Origin))
	for _, s := range a.ASPath {
		if len(s.ASNs) == 0 {
			continue
		}
		h = fnvByte(h, byte(s.Type))
		h = fnvByte(h, byte(len(s.ASNs)))
		for _, asn := range s.ASNs {
			h = fnv32(h, asn)
		}
	}
	if a.NextHop.Is4() {
		h = fnv32(h, binaryAddr4(a.NextHop))
	} else if a.NextHop.IsValid() {
		for _, b := range a.NextHop.As16() {
			h = fnvByte(h, b)
		}
	}
	if a.HasMED {
		h = fnvByte(h, 1) // presence tag
		h = fnv32(h, a.MED)
	}
	if a.HasLocalPref {
		h = fnvByte(h, 2)
		h = fnv32(h, a.LocalPref)
	}
	if a.Atomic {
		h = fnvByte(h, 3)
	}
	if a.Aggregator != nil {
		h = fnvByte(h, 4)
		h = fnv32(h, a.Aggregator.AS)
		if a.Aggregator.Addr.Is4() {
			h = fnv32(h, binaryAddr4(a.Aggregator.Addr))
		}
	}
	for _, c := range a.Communities {
		h = fnvByte(h, 5)
		h = fnv32(h, uint32(c))
	}
	for _, u := range a.Unknown {
		h = fnvByte(h, canonUnknownFlags(u.Flags, len(u.Value)))
		h = fnvByte(h, u.Code)
		for _, b := range u.Value {
			h = fnvByte(h, b)
		}
	}
	return h
}

// binaryAddr4 packs an IPv4 netip.Addr into its uint32 value.
func binaryAddr4(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
