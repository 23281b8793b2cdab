// Package compiled lowers the testbed's safety rules — prefix
// ownership, ROA-style origin validation, and Peerlock/Peerlock-lite
// AS-path rules — into one immutable verdict structure cheap enough to
// sit on the server's ingest hot path.
//
// The source form is a RuleSet (authored by hand, parsed from a rule
// file, or built programmatically). Compile folds it into a Filter:
// the prefix rules and the origin rules each become one trie.Flat (IPv4
// and IPv6 alike), walked covering-entry by covering-entry; adjacency
// rules become flat AS-indexed maps, and the per-path portion of a
// verdict (origin AS, Peerlock adjacency, protected-AS presence) is
// memoized per interned *wire.Attrs pointer, which the intern table
// guarantees is canonical and immutable. A Filter never changes after
// Compile returns, so Verdict is safe from every ingest shard
// concurrently with no locks; in steady state (memo warm) it allocates
// nothing and costs O(path length) on the first sight of an attribute
// set, a search of each table and its covering entries after.
//
// An Engine is an atomic.Pointer around the current Filter: operators
// reload rules by compiling a new Filter and swapping it in, and every
// in-flight update observes exactly one of the two filters — never a
// mix, never neither.
package compiled

import (
	"fmt"
	"maps"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"peering/internal/trie"
	"peering/internal/wire"
)

// ---------------------------------------------------------------------
// Source rules

// PrefixRule is one prefix-ownership entry: prefixes covered by Prefix
// with mask length in [Ge, Le] are permitted or denied. Zero Ge/Le
// default to the prefix's own length (exact match), matching
// policy.PrefixRule. Rules are ordered; the first match wins.
type PrefixRule struct {
	Prefix netip.Prefix
	Ge, Le int
	Permit bool
}

// OriginRule is one ROA-style authorization: Origin may originate
// Prefix and its more-specifics down to MaxLen (zero = Prefix's own
// length, the RFC 6482 default). A route whose prefix is covered by at
// least one OriginRule must satisfy one — origin and length both — or
// it is rejected as invalid; uncovered prefixes are unknown and pass.
type OriginRule struct {
	Prefix netip.Prefix
	MaxLen int
	Origin uint32
}

// PeerlockRule protects one large network's AS from appearing in
// leaked paths: if Protected occurs anywhere in an AS_PATH, every AS
// adjacent to it in that path must be in Allowed (Protected's own
// prepends are always fine). This is the Peerlock scheme from
// "Flexsealing BGP Against Route Leaks": big networks interconnect
// directly, so a small AS between two tier-1s is a leak.
type PeerlockRule struct {
	Protected uint32
	Allowed   []uint32
}

// MetroRule declares one metro-local community: routes tagged with
// Community belong to the metro named Name and must never be accepted
// here — the tag marks a route as local to this metro's own exchange,
// so seeing it arrive over a session means it looped back across the
// federation backhaul (see internal/federation). The federation layer
// suppresses such routes at export; this rule class is the importing
// mux's defense in depth.
type MetroRule struct {
	Name      string
	Community wire.Community
}

// RuleSet is the source form of a compiled filter.
type RuleSet struct {
	// DefaultDeny rejects prefixes no PrefixRule matches. The default
	// (false) permits them, so an empty rule set accepts everything.
	DefaultDeny bool
	Prefixes    []PrefixRule
	Origins     []OriginRule
	Peerlock    []PeerlockRule
	// NoTransit lists ASes under Peerlock-lite: routes carrying one of
	// them are rejected when learned from a non-transit neighbor, who
	// could only have such a path by leaking (a customer or peer never
	// legitimately provides transit to a tier-1).
	NoTransit []uint32
	// Metros lists metro-local communities to reject on sight.
	Metros []MetroRule
}

// ---------------------------------------------------------------------
// Verdicts

// Class names the rule family that decided a verdict.
type Class uint8

// Verdict rule classes.
const (
	ClassNone         Class = iota // no rule fired (default accept)
	ClassPrefix                    // prefix-ownership rule
	ClassOrigin                    // ROA origin validation
	ClassPeerlock                  // Peerlock adjacency rule
	ClassPeerlockLite              // Peerlock-lite no-transit rule
	ClassMetro                     // metro-local community rule
	NumClasses        = 6
)

func (c Class) String() string {
	switch c {
	case ClassPrefix:
		return "prefix"
	case ClassOrigin:
		return "origin"
	case ClassPeerlock:
		return "peerlock"
	case ClassPeerlockLite:
		return "peerlock_lite"
	case ClassMetro:
		return "metro"
	default:
		return "none"
	}
}

// Verdict is the outcome of filtering one route.
type Verdict struct {
	Accept bool
	// Class is the rule family that rejected the route; ClassNone on
	// accept.
	Class Class
}

// OriginState is the RPKI-style tri-state of one (prefix, origin) pair
// against the compiled origin table.
type OriginState uint8

// Origin validation states.
const (
	OriginUnknown OriginState = iota // no covering authorization exists
	OriginValid                      // a covering authorization matches
	OriginInvalid                    // covered, but no authorization matches
)

// Peer is the neighbor context of a verdict: who sent the route and
// whether they are a paid transit provider (tier-1 paths are expected
// from transit, and a leak from anyone else).
type Peer struct {
	AS      uint32
	Transit bool
}

// ---------------------------------------------------------------------
// Compiled representation

// cpRule is one lowered prefix rule, stored under its prefix.
type cpRule struct {
	idx    int32 // position in the source list (first match wins)
	ge, le int16
	permit bool
}

// cOrigin is one lowered authorization, stored under its prefix.
type cOrigin struct {
	origin uint32
	maxLen int16
}

// pathFacts is everything a verdict needs from an AS_PATH, computed
// once per interned attribute set and memoized.
type pathFacts struct {
	origin      uint32
	peerlockBad bool // some Peerlock adjacency is violated
	noTransitAS bool // the path carries a Peerlock-lite protected AS
}

// Filter is an immutable compiled rule set. The zero value is not
// useful; build one with Compile. A nil *Filter accepts everything.
type Filter struct {
	gen           uint64
	defaultPermit bool
	prefixes      *trie.Flat[[]cpRule] // the rules anchored at each prefix
	nPrefix       int
	origins       *trie.Flat[[]cOrigin] // the authorizations anchored at each prefix
	nOrigins      int
	peerlock      map[uint32][]uint32 // protected → allowed adjacency (unsorted, short)
	noTransit     map[uint32]struct{}
	metros        map[wire.Community]string // metro-local tag → metro name
	compileTime   time.Duration

	// paths memoizes pathFacts per interned *wire.Attrs, for Verdict
	// alone. Correct because interned attribute sets are frozen and
	// canonical (equal attrs resolve to one pointer), and bounded only
	// because its callers intern first: the intern table bounds the
	// distinct pointers, and every entry pins its attribute set until
	// the Filter is replaced. Anything that has not been interned —
	// a client's freshly decoded announcement — must not come near it
	// (see VerdictPath). Stored per Filter, so a reload naturally drops
	// stale facts with the old Filter.
	paths sync.Map
}

// Compile lowers rs into an immutable Filter. Rule values are
// normalized rather than rejected: zero Ge/Le/MaxLen default to the
// rule prefix's own length, inverted or out-of-range bounds are
// clamped to the address family's bit length. (The rule-file parser is
// where malformed input is reported; see ParseRules.)
func Compile(rs *RuleSet) *Filter {
	start := time.Now()
	f := &Filter{
		defaultPermit: !rs.DefaultDeny,
		peerlock:      make(map[uint32][]uint32, len(rs.Peerlock)),
		noTransit:     make(map[uint32]struct{}, len(rs.NoTransit)),
		metros:        make(map[wire.Community]string, len(rs.Metros)),
	}
	prefixes := make(map[netip.Prefix][]cpRule, len(rs.Prefixes))
	for i, r := range rs.Prefixes {
		if !r.Prefix.IsValid() {
			continue
		}
		p := r.Prefix.Masked()
		ge, le := clampRange(p, r.Ge, r.Le)
		prefixes[p] = append(prefixes[p], cpRule{idx: int32(i), ge: ge, le: le, permit: r.Permit})
		f.nPrefix++
	}
	origins := make(map[netip.Prefix][]cOrigin, len(rs.Origins))
	for _, r := range rs.Origins {
		if !r.Prefix.IsValid() {
			continue
		}
		p := r.Prefix.Masked()
		maxLen := min(max(r.MaxLen, p.Bits()), p.Addr().BitLen())
		origins[p] = append(origins[p], cOrigin{origin: r.Origin, maxLen: int16(maxLen)})
		f.nOrigins++
	}
	for _, r := range rs.Peerlock {
		f.peerlock[r.Protected] = append(f.peerlock[r.Protected], r.Allowed...)
	}
	for _, asn := range rs.NoTransit {
		f.noTransit[asn] = struct{}{}
	}
	for _, m := range rs.Metros {
		f.metros[m.Community] = m.Name
	}
	f.prefixes, f.origins = trie.NewFlat(maps.All(prefixes)), trie.NewFlat(maps.All(origins))
	f.compileTime = time.Since(start)
	return f
}

// clampRange resolves a rule's [ge, le] against its prefix: zeros
// default to the prefix's own length, bounds are clamped to [bits,
// family bitlen], and an inverted range stays inverted (matches
// nothing) — a router prefix-list's ge/le semantics.
func clampRange(p netip.Prefix, ge, le int) (int16, int16) {
	if ge == 0 {
		ge = p.Bits()
	}
	if le == 0 {
		le = p.Bits()
	}
	if max := p.Addr().BitLen(); le > max {
		le = max
	}
	// A rule can never match a prefix shorter than itself (the covering
	// walk only visits covering entries), so raise ge to the floor.
	if ge < p.Bits() {
		ge = p.Bits()
	}
	return int16(ge), int16(le)
}

// MatchPrefix evaluates p against the compiled prefix-ownership rules
// alone: first source-order match wins, the default applies when
// nothing matches — a router prefix-list, whose linear scan is kept
// as the oracle in compiled_test.go.
func (f *Filter) MatchPrefix(p netip.Prefix) bool {
	bits := int16(p.Bits())
	best := int32(-1)
	permit := f.defaultPermit
	f.prefixes.Supernets(p, func(_ netip.Prefix, rules []cpRule) bool {
		for _, r := range rules {
			if bits < r.ge || bits > r.le {
				continue
			}
			if best < 0 || r.idx < best {
				best, permit = r.idx, r.permit
			}
		}
		return true
	})
	return permit
}

// Origin classifies (p, origin) against the compiled authorizations:
// Valid if some covering rule authorizes the origin at p's length,
// Invalid if p is covered but nothing matches, Unknown if no covering
// rule exists. A closed-world table ("only what is listed may be
// originated") treats anything but Valid as not allowed.
func (f *Filter) Origin(p netip.Prefix, origin uint32) OriginState {
	bits := int16(p.Bits())
	state := OriginUnknown
	f.origins.Supernets(p, func(_ netip.Prefix, ents []cOrigin) bool {
		state = OriginInvalid
		for _, e := range ents {
			if e.origin == origin && bits <= e.maxLen {
				state = OriginValid
				return false
			}
		}
		return true
	})
	return state
}

// facts returns the memoized path facts for attrs, computing them on
// first sight. attrs must be interned (frozen and canonical); the
// pointer is the cache key, and the entry lives as long as the Filter.
func (f *Filter) facts(attrs *wire.Attrs) pathFacts {
	if v, ok := f.paths.Load(attrs); ok {
		return v.(pathFacts)
	}
	pf := f.computeFacts(attrs)
	f.paths.Store(attrs, pf)
	return pf
}

func (f *Filter) computeFacts(attrs *wire.Attrs) pathFacts {
	var pf pathFacts
	pf.origin = attrs.OriginAS()
	// Walk the flattened path once, checking each ASN's membership in
	// the Peerlock-lite set and, for protected ASes, the Peerlock
	// adjacency of its left and right neighbors. AS_SET members are
	// treated as pairwise adjacent to their neighbors — conservative,
	// since a set erases ordering.
	prev := uint32(0)
	for si, seg := range attrs.ASPath {
		for ai, asn := range seg.ASNs {
			if _, ok := f.noTransit[asn]; ok {
				pf.noTransitAS = true
			}
			if allowed, ok := f.peerlock[asn]; ok {
				next := uint32(0)
				if ai+1 < len(seg.ASNs) {
					next = seg.ASNs[ai+1]
				} else if si+1 < len(attrs.ASPath) && len(attrs.ASPath[si+1].ASNs) > 0 {
					next = attrs.ASPath[si+1].ASNs[0]
				}
				if !adjacencyOK(asn, prev, allowed) || !adjacencyOK(asn, next, allowed) {
					pf.peerlockBad = true
				}
			}
			prev = asn
		}
	}
	return pf
}

// adjacencyOK reports whether neighbor may sit next to protected in a
// path: path edges (0), the protected AS's own prepends, and listed
// partners are fine.
func adjacencyOK(protected, neighbor uint32, allowed []uint32) bool {
	if neighbor == 0 || neighbor == protected {
		return true
	}
	for _, a := range allowed {
		if a == neighbor {
			return true
		}
	}
	return false
}

// Verdict filters one route: the prefix against the ownership rules,
// the path against Peerlock and (for non-transit neighbors)
// Peerlock-lite, and the (prefix, origin) pair against the ROA table.
// All families must pass. attrs must be interned and may be nil
// (withdrawal-style, path checks skipped); a nil Filter accepts
// everything. Safe for concurrent use from every ingest shard;
// allocation-free once the path memo has seen attrs.
func (f *Filter) Verdict(p netip.Prefix, attrs *wire.Attrs, peer Peer) Verdict {
	if f == nil {
		return Verdict{Accept: true}
	}
	if f.nPrefix > 0 || !f.defaultPermit {
		if !f.MatchPrefix(p) {
			return Verdict{Class: ClassPrefix}
		}
	}
	if attrs != nil {
		if len(f.metros) > 0 && f.matchMetro(attrs) {
			return Verdict{Class: ClassMetro}
		}
		if len(f.peerlock) > 0 || len(f.noTransit) > 0 {
			pf := f.facts(attrs)
			if pf.peerlockBad {
				return Verdict{Class: ClassPeerlock}
			}
			if pf.noTransitAS && !peer.Transit {
				return Verdict{Class: ClassPeerlockLite}
			}
		}
		if f.nOrigins > 0 {
			if f.Origin(p, attrs.OriginAS()) == OriginInvalid {
				return Verdict{Class: ClassOrigin}
			}
		}
	}
	return Verdict{Accept: true}
}

// matchMetro reports whether attrs carry any metro-local community.
// Deliberately not memoized in pathFacts: the federation export path
// evaluates freshly cloned (un-interned) attribute sets, and a
// pointer-keyed memo would both be unsound there and grow without
// bound. A linear scan over the (short, sorted) communities list is
// allocation-free.
func (f *Filter) matchMetro(attrs *wire.Attrs) bool {
	for _, c := range attrs.Communities {
		if _, ok := f.metros[c]; ok {
			return true
		}
	}
	return false
}

// MatchMetro names the metro whose local tag attrs carry, if any. Safe
// on un-interned attribute sets (no memoization).
func (f *Filter) MatchMetro(attrs *wire.Attrs) (string, bool) {
	if f == nil || attrs == nil {
		return "", false
	}
	for _, c := range attrs.Communities {
		if name, ok := f.metros[c]; ok {
			return name, true
		}
	}
	return "", false
}

// VerdictPath applies only the AS-path rule families — Peerlock and,
// for non-transit neighbors, Peerlock-lite — ignoring the prefix and
// origin tables. This is the client-direction check: a client's prefix
// ownership is its provisioned allocation (enforced separately by the
// server), but a path that carries a protected AS through a stub
// neighbor is a route leak whatever the prefix says.
//
// attrs need not be interned, and the facts are computed on every call
// instead of memoized: the caller hands over what a client just sent,
// so a pointer-keyed memo would gain an entry — and pin a decoded
// attribute set — per announcement, at the client's command. A client
// path is a handful of ASNs; walking it costs less than the memo's
// lookup. The caller vets once per UPDATE, not per NLRI. Safe for
// concurrent use; allocates nothing.
func (f *Filter) VerdictPath(attrs *wire.Attrs, peer Peer) Verdict {
	if f == nil || attrs == nil || (len(f.peerlock) == 0 && len(f.noTransit) == 0) {
		return Verdict{Accept: true}
	}
	pf := f.computeFacts(attrs)
	if pf.peerlockBad {
		return Verdict{Class: ClassPeerlock}
	}
	if pf.noTransitAS && !peer.Transit {
		return Verdict{Class: ClassPeerlockLite}
	}
	return Verdict{Accept: true}
}

// Generation is the filter's load sequence number (0 until an Engine
// installs it, and for a nil filter).
func (f *Filter) Generation() uint64 {
	if f == nil {
		return 0
	}
	return f.gen
}

// Status summarizes a compiled filter for operators (GET /policy).
type Status struct {
	Enabled        bool    `json:"enabled"`
	Generation     uint64  `json:"generation"`
	DefaultDeny    bool    `json:"default_deny"`
	PrefixRules    int     `json:"prefix_rules"`
	OriginRules    int     `json:"origin_rules"`
	PeerlockRules  int     `json:"peerlock_rules"`
	NoTransitASes  int     `json:"no_transit_ases"`
	MetroRules     int     `json:"metro_rules"`
	CompileSeconds float64 `json:"compile_seconds"`
}

// Status reports the filter's shape. A nil Filter reports Enabled
// false: the mux is running unfiltered.
func (f *Filter) Status() Status {
	if f == nil {
		return Status{}
	}
	return Status{
		Enabled:        true,
		Generation:     f.gen,
		DefaultDeny:    !f.defaultPermit,
		PrefixRules:    f.nPrefix,
		OriginRules:    f.nOrigins,
		PeerlockRules:  len(f.peerlock),
		NoTransitASes:  len(f.noTransit),
		MetroRules:     len(f.metros),
		CompileSeconds: f.compileTime.Seconds(),
	}
}

func (f *Filter) String() string {
	if f == nil {
		return "<no filter>"
	}
	return fmt.Sprintf("filter gen %d: %d prefix, %d origin, %d peerlock, %d no-transit, %d metro (default %s)",
		f.gen, f.nPrefix, f.nOrigins, len(f.peerlock), len(f.noTransit), len(f.metros),
		map[bool]string{true: "permit", false: "deny"}[f.defaultPermit])
}

// ---------------------------------------------------------------------
// Engine

// Engine holds the active Filter behind an atomic pointer. Loads are
// lock-free; a reload compiles off to the side and swaps one pointer,
// so every concurrent verdict runs against exactly one coherent rule
// set. The zero value is ready to use and starts unfiltered.
type Engine struct {
	cur atomic.Pointer[Filter]
	gen atomic.Uint64
}

// Load compiles rs, stamps the next generation, and installs the
// result, returning it. A nil rs uninstalls filtering entirely.
func (e *Engine) Load(rs *RuleSet) *Filter {
	if rs == nil {
		e.cur.Store(nil)
		return nil
	}
	f := Compile(rs)
	f.gen = e.gen.Add(1)
	e.cur.Store(f)
	return f
}

// Current returns the active filter; nil means accept-all. The
// returned pointer stays valid (immutable) across reloads — callers
// deciding several routes atomically should load once and reuse it.
func (e *Engine) Current() *Filter { return e.cur.Load() }
