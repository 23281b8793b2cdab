// Package rib implements BGP routing tables: per-peer Adj-RIB-In and
// Adj-RIB-Out views, the Loc-RIB with the RFC 4271 §9.1 decision
// process, and change notifications that drive route export.
//
// Every table here is exact-match only — nothing asks one for a covering
// prefix; the FIB, the allocation table and the compiled filter keep
// their own tries for that — so each is a Go map keyed by the masked
// prefix. A prefix given with host bits set is the same key as its
// masked form, and the masked form is what an Adj-RIB reports back: it
// keeps the key, not the spelling it was given (the wire codec masks on
// decode and on encode, so no byte on a session differs). No walk
// visits routes in any particular order.
package rib

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"peering/internal/wire"
)

// DefaultLocalPref is assumed when a route carries no LOCAL_PREF
// attribute (RFC 4271 §9.1.1 leaves this to configuration; 100 is the
// universal default).
const DefaultLocalPref = 100

// PeerKey identifies the source of a route inside a table: the peer's
// address plus the ADD-PATH identifier (zero without ADD-PATH).
type PeerKey struct {
	Addr   netip.Addr
	PathID wire.PathID
}

func (k PeerKey) String() string {
	if k.PathID == 0 {
		return k.Addr.String()
	}
	return fmt.Sprintf("%s#%d", k.Addr, k.PathID)
}

// Route is one path to one prefix, as stored in a RIB.
type Route struct {
	Prefix netip.Prefix
	Attrs  *wire.Attrs
	// Src identifies the peer (and ADD-PATH id) the route came from.
	Src PeerKey
	// PeerAS is the ASN of the advertising peer.
	PeerAS uint32
	// PeerID is the advertising peer's BGP identifier, used as a
	// decision tie-breaker.
	PeerID netip.Addr
	// EBGP marks routes learned over an external session.
	EBGP bool
	// IGPCost is the interior cost to reach Attrs.NextHop.
	IGPCost uint32
	// Learned is when the route entered the table.
	Learned time.Time
	// Stale marks a route retained across a session loss under
	// graceful-restart semantics (RFC 4724): it stays usable until the
	// peer re-announces it or the restart window closes.
	Stale bool
}

// LocalPref returns the route's LOCAL_PREF, applying the default.
func (r *Route) LocalPref() uint32 {
	if r.Attrs != nil && r.Attrs.HasLocalPref {
		return r.Attrs.LocalPref
	}
	return DefaultLocalPref
}

// MED returns the route's MULTI_EXIT_DISC, with absence as zero
// (deterministic-med, Cisco default behavior).
func (r *Route) MED() uint32 {
	if r.Attrs != nil && r.Attrs.HasMED {
		return r.Attrs.MED
	}
	return 0
}

func (r *Route) String() string {
	// An attribute-less route (withdrawn placeholder, or a test fixture)
	// must format, not panic.
	path := ""
	if r.Attrs != nil {
		path = r.Attrs.PathString()
	}
	return fmt.Sprintf("%s via %s path [%s]", r.Prefix, r.Src, path)
}

// pathLen, originOf, and firstAS read attribute fields tolerating a
// route with no attributes at all: such a route compares as an empty
// path with default origin, the same defaults LocalPref and MED apply,
// instead of panicking the decision process.
func pathLen(r *Route) int {
	if r.Attrs == nil {
		return 0
	}
	return r.Attrs.PathLen()
}

func originOf(r *Route) wire.Origin {
	if r.Attrs == nil {
		return wire.OriginIGP
	}
	return r.Attrs.Origin
}

func firstAS(r *Route) uint32 {
	if r.Attrs == nil {
		return 0
	}
	return r.Attrs.FirstAS()
}

// Better reports whether a is preferred over b under the RFC 4271 §9.1.2
// decision process (with the standard vendor extensions for the final
// tie-breaks). Routes must be for the same prefix. Routes with nil
// Attrs are legal: every attribute-derived step reads its default.
func Better(a, b *Route) bool {
	// 1. Highest LOCAL_PREF.
	if la, lb := a.LocalPref(), b.LocalPref(); la != lb {
		return la > lb
	}
	// 2. Shortest AS_PATH.
	if pa, pb := pathLen(a), pathLen(b); pa != pb {
		return pa < pb
	}
	// 3. Lowest ORIGIN (IGP < EGP < incomplete).
	if oa, ob := originOf(a), originOf(b); oa != ob {
		return oa < ob
	}
	// 4. Lowest MED among routes from the same neighbor AS.
	if firstAS(a) == firstAS(b) {
		if ma, mb := a.MED(), b.MED(); ma != mb {
			return ma < mb
		}
	}
	// 5. eBGP over iBGP.
	if a.EBGP != b.EBGP {
		return a.EBGP
	}
	// 6. Lowest IGP cost to next hop.
	if a.IGPCost != b.IGPCost {
		return a.IGPCost < b.IGPCost
	}
	// 7. Lowest peer BGP identifier.
	if a.PeerID != b.PeerID {
		return a.PeerID.Less(b.PeerID)
	}
	// 8. Lowest peer address (and path id) — total order for determinism.
	if a.Src.Addr != b.Src.Addr {
		return a.Src.Addr.Less(b.Src.Addr)
	}
	return a.Src.PathID < b.Src.PathID
}

// ---------------------------------------------------------------------
// Adj-RIB (per-peer view)

// AdjRIB is the set of routes received from (Adj-RIB-In) or sent to
// (Adj-RIB-Out) a single peer: a hash table with one 56-byte slot per
// (masked prefix, path id) and no heap object per route. What a Route
// says of its source besides the path id — address, AS, BGP identifier,
// eBGP bit — is interned per table and a slot holds its index. It is
// per table, not one field of the table, because a client's view sets
// PeerAS route by route; the server's tables hold one record each. A
// Route is what goes in and comes out, by value: nothing points into
// the table. It is not safe for concurrent use.
type AdjRIB struct {
	m      map[adjKey]adjVal
	intern *wire.InternTable
	peers  []peerRec
	peerAt map[peerRec]uint32 // index into peers
	last   uint32             // the record the last Set used
}

// adjKey is built by keyOf only, so its prefix is always masked. It
// holds no pointer; the family bit keeps 10.0.0.0/24 and
// ::ffff:10.0.0.0/120, whose 16-byte forms agree, two keys.
type adjKey struct {
	addr [16]byte
	id   wire.PathID
	bits uint8
	is6  bool
}

type adjVal struct {
	attrs   *wire.Attrs
	learned int64  // Route.Learned as stamp encodes it
	peer    uint32 // index into AdjRIB.peers
	igpCost uint32
	stale   bool
}

type peerRec struct {
	addr, id netip.Addr
	as       uint32
	ebgp     bool
}

func keyOf(p netip.Prefix, id wire.PathID) adjKey {
	p = p.Masked()
	return adjKey{addr: p.Addr().As16(), id: id, bits: uint8(p.Bits()), is6: p.Addr().Is6()}
}

func (k adjKey) prefix() netip.Prefix {
	if k.is6 {
		return netip.PrefixFrom(netip.AddrFrom16(k.addr), int(k.bits))
	}
	return netip.PrefixFrom(netip.AddrFrom4([4]byte(k.addr[12:])), int(k.bits))
}

func (k adjKey) nlri() wire.NLRI { return wire.NLRI{Prefix: k.prefix(), ID: k.id} }

// noTime is the stamp of the zero Time, whose UnixNano is undefined.
const noTime = math.MinInt64

// stamp and unstamp turn a learned time into a slot's 8 bytes and back:
// the instant survives, to the nanosecond; location and monotonic
// reading do not.
func stamp(t time.Time) int64 {
	if t.IsZero() {
		return noTime
	}
	return t.UnixNano()
}

func unstamp(n int64) time.Time {
	if n == noTime {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// NewAdjRIB returns an empty per-peer table.
func NewAdjRIB() *AdjRIB {
	return &AdjRIB{m: make(map[adjKey]adjVal)}
}

// SetInterner makes the table canonicalize stored attribute pointers
// through t, so routes sharing an attribute set share one *wire.Attrs.
// Attrs stored in an interning table are frozen per the wire package's
// interning contract.
func (a *AdjRIB) SetInterner(t *wire.InternTable) {
	a.intern = t
}

// peerIndex interns r's peer record. The last record used is tried
// first: a table fed by one session never looks further.
func (a *AdjRIB) peerIndex(r *Route) uint32 {
	rec := peerRec{addr: r.Src.Addr, id: r.PeerID, as: r.PeerAS, ebgp: r.EBGP}
	if int(a.last) < len(a.peers) && a.peers[a.last] == rec {
		return a.last
	}
	i, ok := a.peerAt[rec]
	if !ok {
		if a.peerAt == nil {
			a.peerAt = make(map[peerRec]uint32)
		}
		i = uint32(len(a.peers))
		a.peerAt[rec] = i
		a.peers = append(a.peers, rec)
	}
	a.last = i
	return i
}

func (a *AdjRIB) route(k adjKey, v adjVal) Route {
	p := &a.peers[v.peer]
	return Route{
		Prefix: k.prefix(), Attrs: v.attrs, Src: PeerKey{Addr: p.addr, PathID: k.id},
		PeerAS: p.as, PeerID: p.id, EBGP: p.ebgp,
		IGPCost: v.igpCost, Learned: unstamp(v.learned), Stale: v.stale,
	}
}

// Set stores *r under its masked prefix and path ID, reporting whether
// that replaced a previous route. r itself is never retained, so
// callers can pass a stack-allocated Route. With an interner
// configured, the stored Attrs is the canonical pointer.
func (a *AdjRIB) Set(r *Route) bool {
	attrs := r.Attrs
	if a.intern != nil {
		attrs = a.intern.Intern(attrs)
	}
	n := len(a.m)
	a.m[keyOf(r.Prefix, r.Src.PathID)] = adjVal{
		attrs: attrs, learned: stamp(r.Learned), peer: a.peerIndex(r), igpCost: r.IGPCost, stale: r.Stale,
	}
	return len(a.m) == n
}

// Remove deletes the route for (prefix, id), reporting whether there
// was one.
func (a *AdjRIB) Remove(p netip.Prefix, id wire.PathID) bool {
	n := len(a.m)
	delete(a.m, keyOf(p, id))
	return len(a.m) < n
}

// Get returns the route for (prefix, id), if there is one.
func (a *AdjRIB) Get(p netip.Prefix, id wire.PathID) (Route, bool) {
	k := keyOf(p, id)
	v, ok := a.m[k]
	if !ok {
		return Route{}, false
	}
	return a.route(k, v), true
}

// Len reports the number of stored routes (not prefixes).
func (a *AdjRIB) Len() int { return len(a.m) }

// Walk visits every stored route, in no specified order: two walks of
// the same table may differ.
func (a *AdjRIB) Walk(fn func(Route) bool) {
	for k, v := range a.m {
		if !fn(a.route(k, v)) {
			return
		}
	}
}

// Slot is a stored route without its peer — prefix, path id, attrs and
// learned time in 40 bytes — for a reader that copies a table out from
// under its lock and works on the copy (the warm-restart snapshot).
type Slot struct {
	key     adjKey
	Attrs   *wire.Attrs
	learned int64
}

func (s Slot) NLRI() wire.NLRI    { return s.key.nlri() }
func (s Slot) Learned() time.Time { return unstamp(s.learned) }

// AppendSlots appends every stored route to dst, in no specified order.
func (a *AdjRIB) AppendSlots(dst []Slot) []Slot {
	dst = slices.Grow(dst, len(a.m))
	for k, v := range a.m {
		dst = append(dst, Slot{k, v.attrs, v.learned})
	}
	return dst
}

// WalkGrouped visits every stored route grouped by shared attribute
// set — the shape batch packing wants. With an interner configured the
// grouping key is pointer identity, so a full table resolves to
// O(distinct policies) groups. The prefix slices are freshly built per
// call and may be retained by the caller; the order of groups, and of
// prefixes within one, is unspecified.
//
// Two passes: the first sizes every group, the second fills them, so
// the groups are exact-length cuts of one backing array and nothing
// grows route by route.
func (a *AdjRIB) WalkGrouped(fn func(attrs *wire.Attrs, nlris []wire.NLRI)) {
	type group struct {
		attrs      *wire.Attrs
		start, end int // into arena; end counts routes until the groups are laid out
	}
	idx := make(map[*wire.Attrs]int)
	var groups []group
	for _, v := range a.m {
		i, ok := idx[v.attrs]
		if !ok {
			i = len(groups)
			idx[v.attrs] = i
			groups = append(groups, group{attrs: v.attrs})
		}
		groups[i].end++
	}
	off := 0
	for i := range groups {
		n := groups[i].end
		groups[i].start, groups[i].end = off, off
		off += n
	}
	arena := make([]wire.NLRI, len(a.m))
	for k, v := range a.m {
		g := &groups[idx[v.attrs]]
		arena[g.end] = k.nlri()
		g.end++
	}
	for _, g := range groups {
		fn(g.attrs, arena[g.start:g.end:g.end])
	}
}

// MarkAllStale flags every stored route stale (graceful restart entry),
// returning how many were newly marked.
func (a *AdjRIB) MarkAllStale() int {
	n := 0
	for k, v := range a.m {
		if !v.stale {
			v.stale = true
			a.m[k] = v
			n++
		}
	}
	return n
}

// SweepStale removes every route still marked stale (graceful restart
// exit: flush what the peer did not re-announce) and returns their
// prefixes and path ids, which is what a withdrawal is made of.
//
// A Go map never gives its buckets back, and a torn-down upstream's
// tables are emptied by exactly this call while the tables themselves
// live on: a sweep that leaves nothing behind therefore starts afresh,
// as Clear does, instead of holding a full table's buckets for good. A
// partial sweep keeps them — the peer is about to refill the table.
func (a *AdjRIB) SweepStale() []wire.NLRI {
	var stale []wire.NLRI
	for k, v := range a.m {
		if v.stale {
			stale = append(stale, k.nlri())
			delete(a.m, k)
		}
	}
	if len(a.m) == 0 {
		a.Clear()
	}
	return stale
}

// Clear drops all routes, returning how many were removed. The map is
// replaced, not emptied, so its buckets go with the routes, and so do
// the peer records.
func (a *AdjRIB) Clear() int {
	n := len(a.m)
	a.m = make(map[adjKey]adjVal)
	a.peers, a.peerAt = nil, nil
	return n
}

// ---------------------------------------------------------------------
// Loc-RIB

// Change describes a best-route transition for one prefix, emitted by
// LocRIB mutations so the owner can export.
type Change struct {
	Prefix netip.Prefix
	Old    *Route // nil if the prefix was previously unreachable
	New    *Route // nil if the prefix became unreachable
}

// LocRIB holds all candidate routes and the current best per prefix.
// It is safe for concurrent use: one hash table keyed by masked prefix
// under one lock. Several writers may call in at once — a router's
// session goroutines each install their own peer's routes — and they
// take turns.
type LocRIB struct {
	mu sync.RWMutex
	m  map[netip.Prefix]*entry
	// routes counts candidates; polling loops read it without mu.
	routes atomic.Int64
}

type entry struct {
	// candidates, unordered; best is computed on change.
	candidates []*Route
	best       *Route
}

// NewLocRIB returns an empty Loc-RIB.
func NewLocRIB() *LocRIB {
	return &LocRIB{m: make(map[netip.Prefix]*entry)}
}

// Update inserts or replaces the candidate from r.Src for r.Prefix and
// recomputes the best route. The returned Change has Old == New == best
// when the best route did not move (callers test Changed).
func (l *LocRIB) Update(r *Route) (Change, bool) {
	p := r.Prefix.Masked()
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.m[p]
	if e == nil {
		e = &entry{}
		l.m[p] = e
	}
	replaced := false
	for i, c := range e.candidates {
		if c.Src == r.Src {
			e.candidates[i] = r
			replaced = true
			break
		}
	}
	if !replaced {
		e.candidates = append(e.candidates, r)
		l.routes.Add(1)
	}
	return recompute(p, e)
}

// Withdraw removes the candidate from src for p and recomputes.
func (l *LocRIB) Withdraw(p netip.Prefix, src PeerKey) (Change, bool) {
	p = p.Masked()
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.m[p]
	if e == nil {
		return Change{Prefix: p}, false
	}
	found := false
	for i, c := range e.candidates {
		if c.Src == src {
			last := len(e.candidates) - 1
			copy(e.candidates[i:], e.candidates[i+1:])
			// Nil the vacated tail slot: the backing array must not pin
			// the withdrawn route (and its attrs) until the next append
			// overwrites it.
			e.candidates[last] = nil
			e.candidates = e.candidates[:last]
			l.routes.Add(-1)
			found = true
			break
		}
	}
	if !found {
		return Change{Prefix: p}, false
	}
	ch, changed := recompute(p, e)
	if len(e.candidates) == 0 {
		delete(l.m, p)
	}
	return ch, changed
}

// WithdrawPeer removes every candidate learned from peer address addr
// (session teardown), returning the resulting best-route changes in no
// specified order.
func (l *LocRIB) WithdrawPeer(addr netip.Addr) []Change {
	var changes []Change
	l.mu.Lock()
	defer l.mu.Unlock()
	for p, e := range l.m {
		old := e.candidates
		kept := old[:0]
		for _, c := range old {
			if c.Src.Addr == addr {
				l.routes.Add(-1)
				continue
			}
			kept = append(kept, c)
		}
		if len(kept) == len(old) {
			continue
		}
		// The compaction wrote the survivors over the front of the
		// backing array; nil out the tail so the dropped *Routes (at
		// full-table scale, an entire peer's worth) are collectable
		// instead of staying pinned behind the shortened slice.
		for j := len(kept); j < len(old); j++ {
			old[j] = nil
		}
		e.candidates = kept
		if ch, changed := recompute(p, e); changed {
			changes = append(changes, ch)
		}
		if len(e.candidates) == 0 {
			delete(l.m, p)
		}
	}
	return changes
}

// recompute re-runs the decision process for p. Caller holds l.mu.
func recompute(p netip.Prefix, e *entry) (Change, bool) {
	old := e.best
	var best *Route
	for _, c := range e.candidates {
		if best == nil || Better(c, best) {
			best = c
		}
	}
	e.best = best
	if old == best {
		return Change{Prefix: p, Old: old, New: best}, false
	}
	return Change{Prefix: p, Old: old, New: best}, true
}

// Best returns the selected route for exactly prefix p.
func (l *LocRIB) Best(p netip.Prefix) *Route {
	p = p.Masked()
	l.mu.RLock()
	defer l.mu.RUnlock()
	if e := l.m[p]; e != nil {
		return e.best
	}
	return nil
}

// Candidates returns all candidate routes for p (copy).
func (l *LocRIB) Candidates(p netip.Prefix) []*Route {
	p = p.Masked()
	l.mu.RLock()
	defer l.mu.RUnlock()
	e := l.m[p]
	if e == nil {
		return nil
	}
	out := make([]*Route, len(e.candidates))
	copy(out, e.candidates)
	return out
}

// Prefixes reports the number of distinct prefixes present.
func (l *LocRIB) Prefixes() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.m)
}

// Routes reports the total number of candidate routes.
func (l *LocRIB) Routes() int {
	return int(l.routes.Load())
}

// walk runs fn on every entry under the read lock until fn returns
// false. fn must not call back into l.
func (l *LocRIB) walk(fn func(*entry) bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, e := range l.m {
		if !fn(e) {
			return
		}
	}
}

// WalkBest visits the best route of every prefix, in no specified
// order. Writers wait for the walk to finish, so it sees one state of
// the table.
func (l *LocRIB) WalkBest(fn func(*Route) bool) {
	// Empty entries are pruned on withdraw, so every entry has a best.
	l.walk(func(e *entry) bool { return fn(e.best) })
}

// WalkAll visits every candidate route of every prefix, with the same
// caveats as WalkBest.
func (l *LocRIB) WalkAll(fn func(*Route) bool) {
	l.walk(func(e *entry) bool {
		for _, r := range e.candidates {
			if !fn(r) {
				return false
			}
		}
		return true
	})
}
