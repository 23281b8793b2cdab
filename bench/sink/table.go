// Package sink is the benchmark's load sink: the cheapest endpoint that
// can still prove the mux delivered the right routes. A real
// client.Client runs a bgp.Session, decodes every UPDATE into
// wire.Update values and stores or tallies them — work that would sit
// inside the measurement of a single-process benchmark. A Sink instead
// parses tunnel frame headers and BGP message headers by hand, walks
// the withdrawn/NLRI fields without allocating, and folds what it sees
// into a count and an order-independent checksum per upstream. The
// harness drives the same Table type from its generator (the model);
// a run is correct when every sink's table equals the model's.
package sink

import (
	"encoding/binary"
	"net/netip"
	"sync/atomic"
)

// Range is a block of N consecutive /24s starting at Base that a Table
// tracks by direct index. Prefixes outside it are only ever announced
// once per run (a table load), so a running count and sum describe
// them; prefixes inside it are re-announced and withdrawn at will (the
// churn pool and the latency probes), so the table keeps their current
// state and maintains the checksum of that state incrementally.
type Range struct {
	Base uint32
	N    int
}

// Prefix returns the i-th /24 of the range.
func (r Range) Prefix(i int) netip.Prefix {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], r.Base+uint32(i)<<8)
	return netip.PrefixFrom(netip.AddrFrom4(b), 24)
}

// Counts is a snapshot of one Table.
type Counts struct {
	// Announced and Withdrawn count NLRIs seen outside the tracked
	// range; Sum is the wrapping sum of RouteSum over the announced
	// ones. A route delivered twice shows as Announced one too high and
	// a wrong Sum; a lost route as one too low.
	Announced, Withdrawn, Sum uint64
	// TrackedSum is the checksum of the tracked range's current
	// contents: the sum of RouteSum over present slots. It equals the
	// model's exactly when every slot holds the model's value, whatever
	// order (and however coalesced) the operations arrived in.
	TrackedSum uint64
	// TrackedOps counts operations applied to the tracked range. The
	// mux's coalescing queue may merge operations, so this is a load
	// figure, not a correctness one.
	TrackedOps uint64
}

// Equal reports whether two tables hold the same routes (TrackedOps is
// deliberately excluded).
func (c Counts) Equal(o Counts) bool {
	return c.Announced == o.Announced && c.Withdrawn == o.Withdrawn &&
		c.Sum == o.Sum && c.TrackedSum == o.TrackedSum
}

// Table is one (endpoint, upstream) view. A single goroutine applies
// operations; Publish makes the counts visible to Load from any other.
type Table struct {
	rng     Range
	tracked []uint64 // attr hash | 1 when present, 0 when absent
	c       Counts
	pub     [5]atomic.Uint64
}

// NewTable returns an empty table tracking rng (rng.N may be 0).
func NewTable(rng Range) *Table {
	return &Table{rng: rng, tracked: make([]uint64, rng.N)}
}

// HashAttrs hashes the raw path-attribute bytes of an UPDATE.
func HashAttrs(b []byte) uint64 {
	h := uint64(len(b))*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 0xff51afd7ed558ccd
		h ^= h >> 32
		b = b[8:]
	}
	if len(b) > 0 {
		var t [8]byte
		copy(t[:], b)
		h = (h ^ binary.LittleEndian.Uint64(t[:])) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return h
}

// RouteSum is one route's contribution to a checksum.
func RouteSum(key, attrHash uint64) uint64 {
	x := key*0x9E3779B97F4A7C15 ^ attrHash
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x
}

func slotSum(i int, v uint64) uint64 {
	if v == 0 {
		return 0
	}
	return RouteSum(uint64(i)+1, v)
}

func (t *Table) slot(addr uint32, bits uint8) (int, bool) {
	if bits != 24 || addr < t.rng.Base {
		return 0, false
	}
	i := int((addr - t.rng.Base) >> 8)
	return i, i < len(t.tracked)
}

func (t *Table) set(i int, v uint64) {
	t.c.TrackedSum += slotSum(i, v) - slotSum(i, t.tracked[i])
	t.tracked[i] = v
	t.c.TrackedOps++
}

// Announce applies one announced NLRI (addr is the big-endian IPv4
// address, host bits zero).
func (t *Table) Announce(addr uint32, bits uint8, attrHash uint64) {
	if i, ok := t.slot(addr, bits); ok {
		t.set(i, attrHash|1)
		return
	}
	t.c.Announced++
	t.c.Sum += RouteSum(uint64(addr)<<8|uint64(bits), attrHash)
}

// Withdraw applies one withdrawn NLRI.
func (t *Table) Withdraw(addr uint32, bits uint8) {
	if i, ok := t.slot(addr, bits); ok {
		t.set(i, 0)
		return
	}
	t.c.Withdrawn++
}

func split(p netip.Prefix) (uint32, uint8) {
	a := p.Masked().Addr().As4()
	return binary.BigEndian.Uint32(a[:]), uint8(p.Bits())
}

// AnnouncePrefix is Announce for a decoded prefix (the model's entry).
func (t *Table) AnnouncePrefix(p netip.Prefix, attrHash uint64) {
	addr, bits := split(p)
	t.Announce(addr, bits, attrHash)
}

// WithdrawPrefix is Withdraw for a decoded prefix.
func (t *Table) WithdrawPrefix(p netip.Prefix) {
	addr, bits := split(p)
	t.Withdraw(addr, bits)
}

// Slot returns tracked slot i's attribute hash and whether it is
// present. Only the applying goroutine may call it.
func (t *Table) Slot(i int) (attrHash uint64, present bool) {
	return t.tracked[i], t.tracked[i] != 0
}

// Counts returns the applying goroutine's own view.
func (t *Table) Counts() Counts { return t.c }

// Publish makes the current counts visible to Load.
func (t *Table) Publish() {
	t.pub[0].Store(t.c.Announced)
	t.pub[1].Store(t.c.Withdrawn)
	t.pub[2].Store(t.c.Sum)
	t.pub[3].Store(t.c.TrackedSum)
	t.pub[4].Store(t.c.TrackedOps)
}

// Load returns the last published counts. The fields are stored one by
// one, so a Load racing a Publish can mix two snapshots; callers poll
// until the table settles on the value they expect.
func (t *Table) Load() Counts {
	return Counts{
		Announced:  t.pub[0].Load(),
		Withdrawn:  t.pub[1].Load(),
		Sum:        t.pub[2].Load(),
		TrackedSum: t.pub[3].Load(),
		TrackedOps: t.pub[4].Load(),
	}
}

// Merge adds o's untracked counts and sum into t (combining the models
// of generators that ran in parallel over disjoint prefixes).
func (t *Table) Merge(o *Table) {
	t.c.Announced += o.c.Announced
	t.c.Withdrawn += o.c.Withdrawn
	t.c.Sum += o.c.Sum
}
