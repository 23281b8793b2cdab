// Package router implements the testbed's software BGP router — the
// role Quagga plays in the paper. A Router owns a Loc-RIB, per-peer
// Adj-RIBs, relationship-driven (Gao–Rexford) import and export,
// origination with per-peer steering (selective announce, prepending,
// poisoning, communities), private-ASN stripping, and iBGP/eBGP
// propagation rules.
//
// The same Router type plays every BGP speaker around the mux: one per
// PoP inside MinineXt emulations, the AS model behind IXP members and
// the exchange's route server, and the upstream peers of tests and
// experiments. The mux itself (internal/server) is not built on it: it
// runs no decision process and keeps each peer's table verbatim.
package router

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"peering/internal/bgp"
	"peering/internal/clock"
	"peering/internal/policy"
	"peering/internal/rib"
	"peering/internal/wire"
)

// Config parameterizes a Router.
type Config struct {
	// AS is the router's autonomous system number.
	AS uint32
	// RouterID is the BGP identifier.
	RouterID netip.Addr
	// Clock drives session timers (nil = system clock).
	Clock clock.Clock
	// StripPrivateASNs removes private ASNs from AS paths on eBGP
	// export — how PEERING hides emulated domains' private ASNs from
	// the real Internet (§3).
	StripPrivateASNs bool
	// RouteServer makes the router transparent, like an IXP route
	// server: it does not prepend its own ASN and does not rewrite
	// NEXT_HOP, so members appear directly connected to each other.
	RouteServer bool
}

// PeerConfig describes one neighbor.
type PeerConfig struct {
	// Addr is the neighbor's address — the peer's identity in RIBs.
	Addr netip.Addr
	// LocalAddr is our address facing this peer (NEXT_HOP on export).
	LocalAddr netip.Addr
	// AS is the neighbor's expected ASN (0 = learn from OPEN).
	AS uint32
	// Internal marks an iBGP session.
	Internal bool
	// Relationship drives Gao–Rexford export filtering and the
	// LOCAL_PREF assigned on eBGP import. RelNone assigns none (the
	// decision process reads rib.DefaultLocalPref), and a RelNone
	// peer's routes are exported like locally originated ones; the
	// filter applies only when either side has a relationship, so a
	// router with none configured exports everything.
	Relationship policy.Relationship
	// AddPath offers ADD-PATH on the session.
	AddPath bool
	// HoldTime overrides the default session hold time.
	HoldTime time.Duration
	// Describe labels the peer.
	Describe string
}

// Peer is a configured neighbor and (when attached) its live session.
type Peer struct {
	cfg    PeerConfig
	r      *Router
	mu     sync.Mutex
	sess   *bgp.Session
	adjIn  *rib.AdjRIB
	adjOut *rib.AdjRIB
}

// Config returns the peer's configuration.
func (p *Peer) Config() PeerConfig { return p.cfg }

// Session returns the live session (nil when detached).
func (p *Peer) Session() *bgp.Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sess
}

// Established reports whether the peer's session is up.
func (p *Peer) Established() bool {
	s := p.Session()
	return s != nil && s.State() == bgp.StateEstablished
}

// RoutesIn returns the number of routes received from this peer.
func (p *Peer) RoutesIn() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.adjIn.Len()
}

// RoutesOut returns the number of routes advertised to this peer.
func (p *Peer) RoutesOut() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.adjOut.Len()
}

// WalkIn visits the Adj-RIB-In.
func (p *Peer) WalkIn(fn func(rib.Route) bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.adjIn.Walk(fn)
}

// AnnounceSpec controls how one originated prefix is exported — the
// interdomain-control knobs of §2 ("what announcements to make").
type AnnounceSpec struct {
	// Peers restricts export to these neighbor addresses (nil = all).
	Peers []netip.Addr
	// Prepend prepends our own ASN this many extra times.
	Prepend int
	// Poison inserts these ASNs into the path (after our own), causing
	// those ASes to loop-reject the route — LIFEGUARD's mechanism.
	Poison []uint32
	// Communities to attach.
	Communities []wire.Community
	// OriginASNs, when set, seeds the path as if these ASes (e.g. an
	// emulated domain's private ASN chain) originated the prefix.
	OriginASNs []uint32
	// MED to attach (pointer-free: MEDSet gates it).
	MED    uint32
	MEDSet bool
}

// Router is a BGP speaker.
type Router struct {
	cfg Config

	mu         sync.Mutex
	peers      map[netip.Addr]*Peer
	loc        *rib.LocRIB
	originated map[netip.Prefix]AnnounceSpec
	onBest     func(rib.Change)
}

// New returns a Router with cfg.
func New(cfg Config) *Router {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	return &Router{
		cfg:        cfg,
		peers:      make(map[netip.Addr]*Peer),
		loc:        rib.NewLocRIB(),
		originated: make(map[netip.Prefix]AnnounceSpec),
	}
}

// AS returns the router's ASN.
func (r *Router) AS() uint32 { return r.cfg.AS }

// RouterID returns the BGP identifier.
func (r *Router) RouterID() netip.Addr { return r.cfg.RouterID }

// LocRIB exposes the router's Loc-RIB (read-mostly; callers must not
// mutate routes).
func (r *Router) LocRIB() *rib.LocRIB { return r.loc }

// OnBestChange registers a callback fired after each best-route change
// (the FIB download hook). Must be set before sessions attach.
func (r *Router) OnBestChange(fn func(rib.Change)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onBest = fn
}

// AddPeer registers a neighbor. The session starts when Attach is
// called with a transport.
func (r *Router) AddPeer(cfg PeerConfig) *Peer {
	p := &Peer{cfg: cfg, r: r, adjIn: rib.NewAdjRIB(), adjOut: rib.NewAdjRIB()}
	r.mu.Lock()
	r.peers[cfg.Addr] = p
	r.mu.Unlock()
	return p
}

// Peer returns the neighbor configured at addr.
func (r *Router) Peer(addr netip.Addr) *Peer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peers[addr]
}

// Peers returns all configured neighbors.
func (r *Router) Peers() []*Peer {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Peer, 0, len(r.peers))
	for _, p := range r.peers {
		out = append(out, p)
	}
	return out
}

// Attach binds a transport to peer p and runs the session
// asynchronously. The returned session can be awaited via Done().
func (r *Router) Attach(p *Peer, conn net.Conn) *bgp.Session {
	holdTime := bgp.DefaultHoldTime
	if p.cfg.HoldTime != 0 {
		holdTime = p.cfg.HoldTime
	}
	sess := bgp.New(conn, bgp.Config{
		LocalAS:  r.cfg.AS,
		LocalID:  r.cfg.RouterID,
		PeerAS:   p.cfg.AS,
		HoldTime: holdTime,
		AddPath:  p.cfg.AddPath,
		Clock:    r.cfg.Clock,
		Describe: fmt.Sprintf("AS%d->%s", r.cfg.AS, p.cfg.Describe),
	}, &peerHandler{p: p})
	p.mu.Lock()
	p.sess = sess
	p.mu.Unlock()
	go sess.Run()
	return sess
}

// peerHandler adapts bgp.Handler events onto the router.
type peerHandler struct{ p *Peer }

func (h *peerHandler) Established(s *bgp.Session) { h.p.r.peerUp(h.p) }

func (h *peerHandler) UpdateReceived(s *bgp.Session, u *wire.Update) {
	h.p.r.handleUpdate(h.p, s, u)
}

func (h *peerHandler) Closed(s *bgp.Session, err error) { h.p.r.peerDown(h.p) }

// peerUp sends the full table to a newly established peer, closed by an
// end-of-RIB marker so graceful-restart peers can flush stale routes.
func (r *Router) peerUp(p *Peer) {
	var routes []*rib.Route
	r.loc.WalkBest(func(rt *rib.Route) bool {
		routes = append(routes, rt)
		return true
	})
	for _, rt := range routes {
		r.exportRoute(p, rt)
	}
	if sess := p.Session(); sess != nil {
		sess.Send(&wire.Update{})
	}
}

// peerDown withdraws everything learned from p and notifies others.
func (r *Router) peerDown(p *Peer) {
	p.mu.Lock()
	p.adjIn.Clear()
	p.adjOut.Clear()
	p.sess = nil
	p.mu.Unlock()
	changes := r.loc.WithdrawPeer(p.cfg.Addr)
	for _, ch := range changes {
		r.propagate(ch)
	}
}

// handleUpdate processes one inbound UPDATE from p.
func (r *Router) handleUpdate(p *Peer, s *bgp.Session, u *wire.Update) {
	// Withdrawals first (RFC 4271 §9).
	for _, n := range u.Withdrawn {
		src := rib.PeerKey{Addr: p.cfg.Addr, PathID: n.ID}
		p.mu.Lock()
		p.adjIn.Remove(n.Prefix, n.ID)
		p.mu.Unlock()
		if ch, changed := r.loc.Withdraw(n.Prefix, src); changed {
			r.propagate(ch)
		}
	}
	if u.Attrs == nil || len(u.Reach) == 0 {
		return
	}
	// Loop detection: our ASN in the path makes the route ineligible —
	// but the advertisement still implicitly withdraws any previous
	// route for the same NLRI from this peer (RFC 4271 §9; this is
	// what makes BGP poisoning work as a steering mechanism).
	if u.Attrs.ContainsAS(r.cfg.AS) {
		for _, n := range u.Reach {
			src := rib.PeerKey{Addr: p.cfg.Addr, PathID: n.ID}
			p.mu.Lock()
			p.adjIn.Remove(n.Prefix, n.ID)
			p.mu.Unlock()
			if ch, changed := r.loc.Withdraw(n.Prefix, src); changed {
				r.propagate(ch)
			}
		}
		return
	}
	for _, n := range u.Reach {
		rt := &rib.Route{
			Prefix:  n.Prefix,
			Attrs:   u.Attrs.Clone(),
			Src:     rib.PeerKey{Addr: p.cfg.Addr, PathID: n.ID},
			PeerAS:  s.PeerAS(),
			PeerID:  s.PeerID(),
			EBGP:    !p.cfg.Internal,
			Learned: r.cfg.Clock.Now(),
		}
		// eBGP: LOCAL_PREF is not accepted from outside; relationship
		// (when configured) assigns it.
		if rt.EBGP {
			rt.Attrs.HasLocalPref = false
			if p.cfg.Relationship != policy.RelNone {
				rt.Attrs.LocalPref = policy.LocalPrefFor(p.cfg.Relationship)
				rt.Attrs.HasLocalPref = true
			}
		}
		p.mu.Lock()
		p.adjIn.Set(rt)
		p.mu.Unlock()
		if ch, changed := r.loc.Update(rt); changed {
			r.propagate(ch)
		}
	}
}

// propagate fans a best-route change out to every peer and the FIB hook.
func (r *Router) propagate(ch rib.Change) {
	r.mu.Lock()
	onBest := r.onBest
	peers := make([]*Peer, 0, len(r.peers))
	for _, p := range r.peers {
		peers = append(peers, p)
	}
	r.mu.Unlock()
	if onBest != nil {
		onBest(ch)
	}
	for _, p := range peers {
		if !p.Established() {
			continue
		}
		if ch.New != nil {
			r.exportRoute(p, ch.New)
		} else {
			r.withdrawFrom(p, ch.Prefix)
		}
	}
}

// Announce originates prefix with spec and exports it.
func (r *Router) Announce(prefix netip.Prefix, spec AnnounceSpec) {
	r.mu.Lock()
	r.originated[prefix] = spec
	r.mu.Unlock()

	attrs := &wire.Attrs{Origin: wire.OriginIGP, NextHop: r.cfg.RouterID}
	for i := len(spec.OriginASNs) - 1; i >= 0; i-- {
		attrs.PrependAS(spec.OriginASNs[i], 1)
	}
	rt := &rib.Route{
		Prefix:  prefix,
		Attrs:   attrs,
		Src:     rib.PeerKey{}, // invalid addr = locally originated
		Learned: r.cfg.Clock.Now(),
	}
	if ch, changed := r.loc.Update(rt); changed {
		r.propagate(ch)
	} else {
		// Re-announcement with a new spec: force re-export.
		r.propagate(rib.Change{Prefix: prefix, New: r.loc.Best(prefix)})
	}
}

// Withdraw retracts a locally originated prefix.
func (r *Router) Withdraw(prefix netip.Prefix) {
	r.mu.Lock()
	delete(r.originated, prefix)
	r.mu.Unlock()
	if ch, changed := r.loc.Withdraw(prefix, rib.PeerKey{}); changed {
		r.propagate(ch)
	}
}

// specFor returns the announce spec if rt is locally originated.
func (r *Router) specFor(rt *rib.Route) (AnnounceSpec, bool) {
	if rt.Src.Addr.IsValid() {
		return AnnounceSpec{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.originated[rt.Prefix]
	return s, ok
}

// exportRoute applies export rules for rt toward p and sends the
// resulting UPDATE (or a withdraw when rules now reject a previously
// advertised prefix).
func (r *Router) exportRoute(p *Peer, rt *rib.Route) {
	out := r.exportTransform(p, rt)
	if out == nil {
		r.withdrawFrom(p, rt.Prefix)
		return
	}
	p.mu.Lock()
	sess := p.sess
	p.adjOut.Set(out)
	p.mu.Unlock()
	if sess == nil {
		return
	}
	u := &wire.Update{
		Attrs: out.Attrs,
		Reach: []wire.NLRI{{Prefix: out.Prefix}},
	}
	sess.Send(u)
}

// withdrawFrom retracts prefix from p if previously advertised.
func (r *Router) withdrawFrom(p *Peer, prefix netip.Prefix) {
	p.mu.Lock()
	had := p.adjOut.Remove(prefix, 0)
	sess := p.sess
	p.mu.Unlock()
	if !had || sess == nil {
		return
	}
	sess.Send(&wire.Update{Withdrawn: []wire.NLRI{{Prefix: prefix}}})
}

// exportTransform computes the attributes rt would be announced to p
// with, or nil when export is denied.
func (r *Router) exportTransform(p *Peer, rt *rib.Route) *rib.Route {
	// Never echo a route back to the peer that sent it.
	if rt.Src.Addr == p.cfg.Addr {
		return nil
	}
	// iBGP full-mesh rule: routes learned from an internal peer are
	// not re-exported to internal peers.
	if !rt.EBGP && rt.Src.Addr.IsValid() && p.cfg.Internal {
		return nil
	}
	// Well-known communities.
	if rt.Attrs.HasCommunity(wire.CommNoAdvertise) {
		return nil
	}
	if rt.Attrs.HasCommunity(wire.CommNoExport) && !p.cfg.Internal {
		return nil
	}
	// Gao–Rexford: relationship of the peer the route was learned from
	// vs. the peer we export to.
	fromRel := policy.RelNone
	if rt.Src.Addr.IsValid() {
		if fromPeer := r.Peer(rt.Src.Addr); fromPeer != nil {
			fromRel = fromPeer.cfg.Relationship
		}
	}
	if (fromRel != policy.RelNone || p.cfg.Relationship != policy.RelNone) &&
		!policy.ShouldExport(fromRel, p.cfg.Relationship) {
		return nil
	}

	spec, isLocal := r.specFor(rt)
	if isLocal && spec.Peers != nil {
		allowed := false
		for _, a := range spec.Peers {
			if a == p.cfg.Addr {
				allowed = true
				break
			}
		}
		if !allowed {
			return nil
		}
	}

	out := *rt
	out.Attrs = rt.Attrs.Clone()
	out.Src = rib.PeerKey{} // attrs now ours

	if isLocal {
		for _, c := range spec.Communities {
			out.Attrs.AddCommunity(c)
		}
		if spec.MEDSet {
			out.Attrs.MED, out.Attrs.HasMED = spec.MED, true
		}
	}

	if !p.cfg.Internal && !r.cfg.RouteServer {
		// eBGP: prepend our ASN (plus any steering prepends/poison),
		// clear LOCAL_PREF, clear MED unless we originated it.
		if isLocal {
			for i := len(spec.Poison) - 1; i >= 0; i-- {
				out.Attrs.PrependAS(spec.Poison[i], 1)
			}
			out.Attrs.PrependAS(r.cfg.AS, 1+spec.Prepend)
		} else {
			out.Attrs.PrependAS(r.cfg.AS, 1)
			out.Attrs.HasMED = false
		}
		out.Attrs.HasLocalPref = false
		if r.cfg.StripPrivateASNs {
			stripPrivateASNs(out.Attrs, r.cfg.AS)
		}
	}
	if r.cfg.RouteServer && !p.cfg.Internal {
		// Transparent multilateral peering: attributes pass through
		// untouched except LOCAL_PREF, which never crosses eBGP.
		out.Attrs.HasLocalPref = false
	} else {
		// NEXT_HOP self (standard for eBGP; we also apply it on iBGP —
		// next-hop-self is the common border-router configuration).
		nh := p.cfg.LocalAddr
		if !nh.IsValid() {
			nh = r.cfg.RouterID
		}
		out.Attrs.NextHop = nh
	}
	return &out
}

// stripPrivateASNs removes private ASNs from the AS path, except
// ownAS (which is preserved even if private, as the testbed AS itself
// must appear).
func stripPrivateASNs(a *wire.Attrs, ownAS uint32) {
	var segs []wire.Segment
	for _, s := range a.ASPath {
		kept := make([]uint32, 0, len(s.ASNs))
		for _, asn := range s.ASNs {
			if asn != ownAS && wire.IsPrivateASN(asn) {
				continue
			}
			kept = append(kept, asn)
		}
		if len(kept) > 0 {
			segs = append(segs, wire.Segment{Type: s.Type, ASNs: kept})
		}
	}
	a.ASPath = segs
}
