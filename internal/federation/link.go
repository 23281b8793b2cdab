package federation

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"peering/internal/bgp"
	"peering/internal/clock"
	"peering/internal/faultconn"
	"peering/internal/ixp"
	"peering/internal/server"
	"peering/internal/tunnel"
	"peering/internal/wire"
)

// Link is one point-to-point backhaul between two members. The
// underlying transport is an in-memory pair wrapped in fault injection:
// latency models the members' attachment (ixp.Site.Backhaul), and
// remote-peering endpoints add the periodic L2 flap the paper's
// "virtualized layer 2 connectivity" rides on.
type Link struct {
	mesh *Mesh
	// a is the lexicographically lower member; stream bands on the
	// shared mux are assigned by that order (a dials streamBaseLow+uid,
	// b dials streamBaseHigh+uid).
	a, b *member
	// ca/cb are the endpoints at a and b. Backhaul byte counters come
	// from their Stats.
	ca, cb *faultconn.Conn
	muxA   *tunnel.Mux
	muxB   *tunnel.Mux
	// profile is the combined link model (RTT = mean of the endpoints',
	// capacity = the narrower attachment, flap MTBF = the jumpier one).
	profile ixp.BackhaulProfile
	remote  bool

	mu          sync.Mutex
	partitioned bool
	flapping    bool
	flaps       uint64
	flapTimer   clock.Timer
	healTimer   clock.Timer
	stopped     bool
}

// newLink builds the backhaul between two members and starts the flap
// schedule if either end is a remote-peering attachment.
func (m *Mesh) newLink(a, b *member) *Link {
	if a.name > b.name {
		a, b = b, a
	}
	pa, pb := a.cfg.Site.Backhaul(), b.cfg.Site.Backhaul()
	l := &Link{
		mesh: m,
		a:    a, b: b,
		profile: ixp.BackhaulProfile{
			RTT:          (pa.RTT + pb.RTT) / 2,
			CapacityMbps: min(pa.CapacityMbps, pb.CapacityMbps),
			FlapMTBF:     minNonzero(pa.FlapMTBF, pb.FlapMTBF),
		},
		remote: a.cfg.Site.Kind == ixp.SiteRemote || b.cfg.Site.Kind == ixp.SiteRemote,
	}
	l.ca, l.cb = faultconn.Pipe(m.clk)
	// Split the link RTT across the two one-way write delays.
	l.ca.SetLatency(l.profile.RTT / 2)
	l.cb.SetLatency(l.profile.RTT / 2)
	l.muxA = tunnel.NewMux(l.ca, func(st *tunnel.Stream) { l.accept(l.a, l.b, st) })
	l.muxB = tunnel.NewMux(l.cb, func(st *tunnel.Stream) { l.accept(l.b, l.a, st) })
	if l.remote && l.profile.FlapMTBF > 0 {
		l.scheduleFlap()
	}
	return l
}

func minNonzero(a, b time.Duration) time.Duration {
	if a == 0 {
		return b
	}
	if b == 0 || a < b {
		return a
	}
	return b
}

// muxFor returns the tunnel mux on the given member's side.
func (l *Link) muxFor(mem *member) *tunnel.Mux {
	if mem == l.a {
		return l.muxA
	}
	return l.muxB
}

// dialBase returns the stream band the given member dials from.
func (l *Link) dialBase(mem *member) uint32 {
	if mem == l.a {
		return streamBaseLow
	}
	return streamBaseHigh
}

// accept terminates a stream the peer dialed: a passive iBGP session
// at mem's agent serving mem's local upstream uid to peer.
func (l *Link) accept(mem, peer *member, st *tunnel.Stream) {
	base := l.dialBase(peer)
	id := st.ID()
	if id < base || id >= base+maxFedUpstreams {
		st.Close()
		return
	}
	uid := id - base
	if _, ok := mem.localUp[uid]; !ok {
		st.Close()
		return
	}
	ag := mem.agent
	if ag == nil {
		st.Close()
		return
	}
	sess := bgp.New(st, bgp.Config{
		LocalAS:  l.mesh.asn,
		LocalID:  mem.cfg.RouterID,
		PeerAS:   l.mesh.asn,
		Clock:    l.mesh.clk,
		Describe: fmt.Sprintf("fed-%s-serves-%s-up%d", mem.name, peer.name, uid),
	}, &exportHandler{ag: ag, peer: peer, uid: uid})
	go sess.Run()
}

// partition drops frames in both directions until heal.
func (l *Link) partition() {
	l.mu.Lock()
	l.partitioned = true
	l.mu.Unlock()
	faultconn.PartitionBoth(l.ca, l.cb)
}

// heal restores a partitioned link.
func (l *Link) heal() {
	l.mu.Lock()
	l.partitioned = false
	l.mu.Unlock()
	faultconn.HealBoth(l.ca, l.cb)
}

// scheduleFlap arms the next periodic remote-peering L2 flap. A flap
// stalls the link for FlapDuration — frames are delayed, not lost, the
// way a transport rides out a brief outage on a provider's virtual L2 —
// so established sessions survive flaps and only notice latency.
func (l *Link) scheduleFlap() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return
	}
	l.flapTimer = l.mesh.clk.AfterFunc(l.profile.FlapMTBF, l.flapOnce)
}

// flapOnce runs one stall/recover cycle and reschedules.
func (l *Link) flapOnce() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.flapping = true
	l.flaps++
	l.mu.Unlock()
	l.ca.Stall()
	l.cb.Stall()
	l.mesh.metrics.flaps.Inc()
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		l.ca.Unstall()
		l.cb.Unstall()
		return
	}
	l.healTimer = l.mesh.clk.AfterFunc(l.mesh.cfg.FlapDuration, func() {
		l.ca.Unstall()
		l.cb.Unstall()
		l.mu.Lock()
		l.flapping = false
		l.mu.Unlock()
		l.scheduleFlap()
	})
	l.mu.Unlock()
}

// stopFlapping cancels the flap schedule and releases any stall.
func (l *Link) stopFlapping() {
	l.mu.Lock()
	l.stopped = true
	ft, ht := l.flapTimer, l.healTimer
	l.mu.Unlock()
	if ft != nil {
		ft.Stop()
	}
	if ht != nil {
		ht.Stop()
	}
	l.ca.Unstall()
	l.cb.Unstall()
}

func (l *Link) close() {
	l.muxA.Close()
	l.muxB.Close()
	l.ca.Close()
	l.cb.Close()
}

// ---------------------------------------------------------------------
// Mirrored (federated) upstreams

// fedUpstream is one remote peer mirrored at a member: the upstream
// registration at X standing in for Y's real upstream uid.
type fedUpstream struct {
	at  *member // X: the member whose server carries the mirror
	via *member // Y: the member whose exchange really has the peer
	uid uint32  // Y's local upstream ID
	id  uint32  // the mirror's upstream ID at X
	u   *server.Upstream
	sup *bgp.Supervisor
	// dialedNano stamps the most recent backhaul dial; the import hook
	// closes the measurement when end-of-RIB lands (see importUpdate).
	dialedNano atomic.Int64
}

// addFedUpstream registers at X the mirror of Y's upstream ucfg.
func (x *member) addFedUpstream(y *member, ucfg server.UpstreamConfig) (*fedUpstream, error) {
	fu := &fedUpstream{at: x, via: y, uid: ucfg.ID, id: fedIDBase(y.idx) + ucfg.ID}
	u, err := x.cfg.Server.AddUpstream(server.UpstreamConfig{
		ID:        fu.id,
		Name:      ucfg.Name + "@" + y.name,
		ASN:       ucfg.ASN,
		PeerAddr:  ucfg.PeerAddr,
		LocalAddr: x.backhaulAddr,
		Transit:   ucfg.Transit,
		FedVia:    y.name,
		Import:    fu.importUpdate,
	})
	if err != nil {
		return nil, fmt.Errorf("federation: mirror %s at %s: %w", ucfg.Name, x.name, err)
	}
	fu.u = u
	return fu, nil
}

// attach brings the mirror's backhaul session up under a supervisor:
// each (re)dial opens a fresh stream in our band on the shared link.
func (fu *fedUpstream) attach() {
	x, y := fu.at, fu.via
	l := x.links[y.idx]
	mux := l.muxFor(x)
	streamID := l.dialBase(x) + fu.uid
	fu.sup = x.cfg.Server.AttachUpstreamSupervised(fu.u, func() (net.Conn, error) {
		select {
		case <-mux.Done():
			return nil, fmt.Errorf("federation: backhaul %s-%s closed: %v", l.a.name, l.b.name, mux.Err())
		default:
		}
		fu.dialedNano.Store(x.mesh.clk.Now().UnixNano())
		return mux.Open(streamID), nil
	})
}

// importUpdate is the mirror's server-side import hook, run on every
// UPDATE before archiving or dispatch. It strips OTHER metros' tags —
// restoring the attrs Y's clients see, which is what makes cross-mux
// tables attribute-for-attribute identical — while leaving this
// member's OWN tag in place for the compiled metro rule to reject as a
// loop. The set arrives interned and shared, so a strip works on a
// clone, made only when a foreign tag is present. End-of-RIB closes the
// convergence measurement opened at dial time.
func (fu *fedUpstream) importUpdate(upd *wire.Update) {
	m := fu.at.mesh
	if upd.IsEndOfRIB() {
		if t := fu.dialedNano.Swap(0); t != 0 {
			d := m.clk.Now().Sub(time.Unix(0, t))
			m.metrics.convergence.With(fu.at.name, fu.via.name).Observe(d.Seconds())
		}
		return
	}
	in := upd.Attrs
	if in == nil {
		return
	}
	own := fu.at.tag
	for tag := range m.tagMetro {
		if tag == own || !upd.Attrs.HasCommunity(tag) {
			continue
		}
		if upd.Attrs == in {
			upd.Attrs = in.Clone()
		}
		upd.Attrs.RemoveCommunity(tag)
	}
	if len(upd.Reach) > 0 {
		m.metrics.imported.With(fu.at.name, fu.via.name).Add(uint64(len(upd.Reach)))
	}
}
