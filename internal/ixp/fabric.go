package ixp

import (
	"fmt"
	"net"
	"net/netip"
	"sync"

	"peering/internal/bufconn"
	"peering/internal/dataplane"
	"peering/internal/policy"
	"peering/internal/rib"
	"peering/internal/router"
)

// Fabric is a protocol-level IXP: a shared LAN (emulated as an L3
// switch whose forwarding follows the route server's view), a
// transparent route server, and join/bilateral session plumbing.
//
// Emulation note: a real IXP switches layer-2 frames toward the member
// chosen by the *sender's* next-hop lookup. Our switch forwards by
// destination prefix using the route server's best paths (plus
// member-registered prefixes), which preserves behavior for every
// experiment in this repository; sender-side next-hop steering across
// the fabric would require L2 addressing the dataplane deliberately
// omits.
type Fabric struct {
	Name string
	// RS is the transparent route server (nil if the IXP offers none).
	RS *router.Router
	// Switch is the emulated fabric.
	Switch *dataplane.Router

	lanPrefix netip.Prefix
	mu        sync.Mutex
	nextHost  uint32
	members   map[uint32]*Member
	byLAN     map[netip.Addr]*Member
	rsID      netip.Addr
}

// Member is one AS connected to the fabric.
type Member struct {
	ASN uint32
	// LANAddr is the member's address on the exchange LAN.
	LANAddr netip.Addr
	// Router is the member's BGP speaker.
	Router *router.Router
	// DP is the member's dataplane router (may be nil for
	// control-plane-only members).
	DP *dataplane.Router
	// SwitchIface is the switch-side interface toward this member.
	SwitchIface *dataplane.Iface
	// MemberIface is the member-side interface toward the switch.
	MemberIface *dataplane.Iface
}

// NewFabric creates an exchange with LAN lanPrefix. rsASN, when
// nonzero, starts a route server with that ASN (route servers have
// their own ASN but stay out of the AS path).
func NewFabric(name string, lanPrefix netip.Prefix, rsASN uint32) *Fabric {
	f := &Fabric{
		Name:      name,
		Switch:    dataplane.NewRouter(name + "-switch"),
		lanPrefix: lanPrefix,
		nextHost:  1,
		members:   make(map[uint32]*Member),
		byLAN:     make(map[netip.Addr]*Member),
	}
	if rsASN != 0 {
		f.rsID = f.allocLAN()
		f.RS = router.New(router.Config{AS: rsASN, RouterID: f.rsID, RouteServer: true})
		// Feed the switch's FIB from the route server's view.
		f.RS.OnBestChange(func(ch rib.Change) {
			if ch.New == nil {
				f.Switch.DelRoute(ch.Prefix)
				return
			}
			f.routeViaLAN(ch.Prefix, ch.New.Attrs.NextHop)
		})
	}
	return f
}

// allocLAN hands out the next LAN address.
func (f *Fabric) allocLAN() netip.Addr {
	base := f.lanPrefix.Masked().Addr().As4()
	v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	v += f.nextHost
	f.nextHost++
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// routeViaLAN points the switch's route for p at the member holding
// LAN address nh.
func (f *Fabric) routeViaLAN(p netip.Prefix, nh netip.Addr) {
	f.mu.Lock()
	m := f.byLAN[nh]
	f.mu.Unlock()
	if m == nil || m.SwitchIface == nil {
		return
	}
	f.Switch.SetRoute(p, nh, m.SwitchIface)
}

// Join connects r (and optionally its dataplane router dp) to the
// exchange, returning the member handle. If the fabric runs a route
// server, a BGP session to it is established automatically.
func (f *Fabric) Join(r *router.Router, dp *dataplane.Router) *Member {
	f.mu.Lock()
	lan := f.allocLAN()
	m := &Member{ASN: r.AS(), LANAddr: lan, Router: r, DP: dp}
	f.members[r.AS()] = m
	f.byLAN[lan] = m
	f.mu.Unlock()

	if dp != nil {
		_, swIf, memIf := dataplane.Connect(f.Switch, netip.Addr{}, fmt.Sprintf("to-as%d", r.AS()), dp, lan, f.Name)
		f.Switch.AddIface(swIf)
		dp.AddIface(memIf)
		m.SwitchIface, m.MemberIface = swIf, memIf
		// Member reaches the whole LAN through the switch.
		dp.SetRoute(f.lanPrefix, netip.Addr{}, memIf)
	}

	if f.RS != nil {
		rsPeer := f.RS.AddPeer(router.PeerConfig{
			Addr:      lan,
			LocalAddr: f.rsID,
			Describe:  fmt.Sprintf("member-as%d", r.AS()),
		})
		memPeer := r.AddPeer(router.PeerConfig{
			Addr:      f.rsID,
			LocalAddr: lan,
			AS:        f.RS.AS(),
			// Routes via the route server are settlement-free peer
			// routes: members export only their customer cone to the
			// RS and never give RS-learned routes to their providers.
			Relationship: policy.RelPeer,
			Describe:     f.Name + "-rs",
		})
		ca, cb := bufconn.Pipe()
		f.RS.Attach(rsPeer, ca)
		r.Attach(memPeer, cb)
	}
	return m
}

// JoinExternal adds a member whose BGP stack lives outside the fabric's
// control — a PEERING server. It allocates a LAN address, attaches dp
// (if non-nil) to the switch, and, when a route server exists, returns
// a net.Conn whose far end is the route server; the caller runs its own
// session over it. The returned member has no Router.
func (f *Fabric) JoinExternal(asn uint32, dp *dataplane.Router) (*Member, net.Conn) {
	f.mu.Lock()
	lan := f.allocLAN()
	m := &Member{ASN: asn, LANAddr: lan, DP: dp}
	f.members[asn] = m
	f.byLAN[lan] = m
	f.mu.Unlock()

	if dp != nil {
		_, swIf, memIf := dataplane.Connect(f.Switch, netip.Addr{}, fmt.Sprintf("to-as%d", asn), dp, lan, f.Name)
		f.Switch.AddIface(swIf)
		dp.AddIface(memIf)
		m.SwitchIface, m.MemberIface = swIf, memIf
		dp.SetRoute(f.lanPrefix, netip.Addr{}, memIf)
	}

	if f.RS == nil {
		return m, nil
	}
	rsPeer := f.RS.AddPeer(router.PeerConfig{
		Addr:      lan,
		LocalAddr: f.rsID,
		Describe:  fmt.Sprintf("ext-member-as%d", asn),
	})
	ca, cb := bufconn.Pipe()
	f.RS.Attach(rsPeer, ca)
	return m, cb
}

// RouteServerAddr returns the route server's LAN address (invalid when
// the fabric runs no RS).
func (f *Fabric) RouteServerAddr() netip.Addr { return f.rsID }

// BilateralConn prepares a direct session between member m and an
// external speaker at extLAN with AS extASN: m's router gets a peer
// config and the returned conn's far end is m. The external side runs
// its own session over the conn.
func (f *Fabric) BilateralConn(m *Member, extASN uint32, extLAN netip.Addr) net.Conn {
	p := m.Router.AddPeer(router.PeerConfig{
		Addr:         extLAN,
		LocalAddr:    m.LANAddr,
		AS:           extASN,
		Relationship: policy.RelPeer,
		Describe:     fmt.Sprintf("bilateral-ext-as%d", extASN),
	})
	ca, cb := bufconn.Pipe()
	m.Router.Attach(p, ca)
	return cb
}

// Member returns the member with the given ASN.
func (f *Fabric) Member(asn uint32) *Member {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[asn]
}

// Members returns all connected members.
func (f *Fabric) Members() []*Member {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Member, 0, len(f.members))
	for _, m := range f.members {
		out = append(out, m)
	}
	return out
}

// ConnectBilateral establishes a direct BGP session between members a
// and b across the fabric (no route server involvement).
func (f *Fabric) ConnectBilateral(a, b *Member) {
	pa := a.Router.AddPeer(router.PeerConfig{
		Addr:      b.LANAddr,
		LocalAddr: a.LANAddr,
		AS:        b.ASN,
		Describe:  fmt.Sprintf("bilateral-as%d", b.ASN),
	})
	pb := b.Router.AddPeer(router.PeerConfig{
		Addr:      a.LANAddr,
		LocalAddr: b.LANAddr,
		AS:        a.ASN,
		Describe:  fmt.Sprintf("bilateral-as%d", a.ASN),
	})
	ca, cb := bufconn.Pipe()
	a.Router.Attach(pa, ca)
	b.Router.Attach(pb, cb)
}
