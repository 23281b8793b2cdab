// Package client implements the PEERING client — the researcher-side
// controller (§3). A client connects to a server over a single tunnel
// transport, learns its provisioning (upstream peers, allocated
// prefixes, multiplexing mode), and then:
//
//   - receives every upstream peer's routes into per-peer views (not
//     just a best path), enabling route-selection experiments;
//   - makes announcements steered per upstream peer, with prepending,
//     poisoning, communities, and emulated-domain origins;
//   - exchanges data-plane traffic with the real Internet through the
//     tunnel, optionally bridging it into a MinineXt emulation.
package client

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"peering/internal/bgp"
	"peering/internal/clock"
	"peering/internal/dataplane"
	"peering/internal/muxproto"
	"peering/internal/rib"
	"peering/internal/tunnel"
	"peering/internal/wire"
)

// Config parameterizes a client.
type Config struct {
	// Name identifies the experiment (must match the server-side
	// account ID used at AcceptClient).
	Name string
	// RouterID is the client's BGP identifier.
	RouterID netip.Addr
	// Clock drives session timers (nil = system).
	Clock clock.Clock
	// CountOnly disables per-upstream view storage: received NLRIs are
	// tallied into per-upstream counters instead of being decoded into
	// rib views. A full Internet table copied into dozens of client
	// views is the dominant memory cost of a fan-out load test; counting
	// keeps each client O(upstreams). With CountOnly set, RouteCount
	// reports announcements net of withdrawals (re-announcements are
	// counted again — there is no table to dedup against), and
	// Routes/RoutesFor/BestRoute see an empty view.
	CountOnly bool
}

// AnnounceOptions steers one announcement — the §2 control surface.
type AnnounceOptions struct {
	// Upstreams restricts the announcement to these upstream IDs
	// (nil = all).
	Upstreams []uint32
	// Prepend adds the testbed ASN this many extra times.
	Prepend int
	// Poison inserts these ASNs into the path so the named ASes drop
	// the route (LIFEGUARD-style route steering).
	Poison []uint32
	// Communities to attach.
	Communities []wire.Community
	// OriginASNs emulates domains behind the client: the path ends
	// with these (private) ASNs, which the server strips before the
	// route reaches the real Internet.
	OriginASNs []uint32
}

// Client is a connected PEERING client.
type Client struct {
	cfg Config
	clk clock.Clock

	mux  *tunnel.Mux
	pkt  *tunnel.PacketTunnel
	prov *muxproto.Provisioning

	// intern canonicalizes attribute sets across all per-upstream views:
	// the same route relayed for N upstreams costs one stored *Attrs.
	intern *wire.InternTable

	mu       sync.Mutex
	sessions map[uint32]*bgp.Session // upstream ID → session (BIRD: key 0)
	// synced holds, per sessions key, the session whose establish-time
	// replay (replayAnnounced + end-of-RIB) has been sent. An Announce
	// racing that replay would go out twice; WaitEstablished waits for
	// it, so what a caller sends next is sent once.
	synced    map[uint32]*bgp.Session
	views     map[uint32]*rib.AdjRIB // upstream ID → received routes
	counts    map[uint32]int         // upstream ID → NLRI tally (CountOnly)
	announced map[netip.Prefix]AnnounceOptions
	// relayed tracks verbatim announcements forwarded through Relay,
	// per upstream, so session re-establishment replays them alongside
	// the announced set (the federation agent's forwarded routes must
	// survive a session blip just like a researcher's own).
	relayed  map[uint32]map[netip.Prefix]*wire.Attrs
	onRoute  func(upstreamID uint32, upd *wire.Update)
	onPacket func(*dataplane.Packet)
	// estNotify is poked whenever a session has established and sent
	// its replay, waking WaitEstablished to recheck its condition.
	estNotify chan struct{}
}

// provisioningTimeout bounds the wait for the server's provisioning
// message during Connect and Reconnect.
const provisioningTimeout = 10 * time.Second

// Connect dials the testbed over conn and completes provisioning. It
// returns once the control handshake is done; BGP sessions establish
// asynchronously (use WaitEstablished).
func Connect(cfg Config, conn net.Conn) (*Client, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	c := &Client{
		cfg:       cfg,
		clk:       cfg.Clock,
		intern:    wire.NewInternTable(),
		sessions:  make(map[uint32]*bgp.Session),
		synced:    make(map[uint32]*bgp.Session),
		views:     make(map[uint32]*rib.AdjRIB),
		counts:    make(map[uint32]int),
		announced: make(map[netip.Prefix]AnnounceOptions),
		relayed:   make(map[uint32]map[netip.Prefix]*wire.Attrs),
		estNotify: make(chan struct{}, 1),
	}
	if err := c.attach(conn); err != nil {
		return nil, err
	}
	return c, nil
}

// attach binds a fresh transport and completes the provisioning
// handshake. Views and the announced set survive, which is what lets
// Reconnect re-claim a graceful-restart server's stale state.
func (c *Client) attach(conn net.Conn) error {
	provCh := make(chan *muxproto.Provisioning, 1)
	errCh := make(chan error, 1)
	mux := tunnel.NewMux(conn, func(st *tunnel.Stream) {
		c.acceptStream(st, provCh, errCh)
	})
	pkt := tunnel.NewPacketTunnel(mux, func(pkt *dataplane.Packet) {
		c.mu.Lock()
		h := c.onPacket
		c.mu.Unlock()
		if h != nil {
			h(pkt)
		}
	})
	c.mu.Lock()
	c.mux = mux
	c.pkt = pkt
	c.mu.Unlock()
	select {
	case <-provCh:
		// already published under c.mu by the control goroutine
	case err := <-errCh:
		mux.Close()
		return err
	case <-c.clk.After(provisioningTimeout):
		mux.Close()
		return errors.New("client: provisioning timeout")
	}
	return nil
}

// Reconnect abandons the current transport (if any) and redoes the
// handshake over conn. Announced prefixes are replayed automatically as
// the new sessions establish, and per-peer views are refreshed by the
// server's replay + end-of-RIB, flushing anything stale.
func (c *Client) Reconnect(conn net.Conn) error {
	c.mu.Lock()
	old := c.mux
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return c.attach(conn)
}

// acceptStream handles server-opened streams.
func (c *Client) acceptStream(st *tunnel.Stream, provCh chan *muxproto.Provisioning, errCh chan error) {
	switch {
	case st.ID() == muxproto.StreamControl:
		go func() {
			p, err := muxproto.ReadProvisioning(st)
			if err != nil {
				errCh <- err
				return
			}
			// Publish provisioning BEFORE acking: the server starts
			// BGP sessions the moment it sees the ack, and session
			// setup depends on the negotiated mode.
			c.mu.Lock()
			c.prov = p
			c.mu.Unlock()
			st.Write([]byte("ok\n"))
			provCh <- p
		}()
	case st.ID() >= muxproto.StreamBGPBase:
		upstreamID := st.ID() - muxproto.StreamBGPBase
		go c.runSession(st, upstreamID)
	}
}

// runSession attaches a BGP session on stream st. In BIRD mode the
// single session has upstreamID 0 and ADD-PATH enabled.
func (c *Client) runSession(st *tunnel.Stream, upstreamID uint32) {
	// Provisioning always precedes BGP streams (server awaits the ack),
	// so the provisioning is set by now.
	prov := c.provisioning()
	bird := prov != nil && prov.Mode == muxproto.ModeBIRD
	sess := bgp.New(st, bgp.Config{
		LocalAS:  c.asn(),
		LocalID:  c.cfg.RouterID,
		AddPath:  bird,
		Clock:    c.clk,
		Describe: fmt.Sprintf("client-%s-up%d", c.cfg.Name, upstreamID),
	}, &sessHandler{c: c, upstreamID: upstreamID, bird: bird})
	c.mu.Lock()
	c.sessions[upstreamID] = sess
	c.mu.Unlock()
	sess.Run()
}

func (c *Client) asn() uint32 {
	if p := c.provisioning(); p != nil {
		return p.ASN
	}
	return 0
}

// provisioning returns the handshake result under lock.
func (c *Client) provisioning() *muxproto.Provisioning {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prov
}

// Provisioning returns the server-assigned provisioning.
func (c *Client) Provisioning() *muxproto.Provisioning { return c.provisioning() }

// Allocation returns the client's allocated prefixes.
func (c *Client) Allocation() []netip.Prefix { return c.provisioning().Allocation }

// Upstreams returns the available upstream peers.
func (c *Client) Upstreams() []muxproto.UpstreamInfo { return c.provisioning().Upstreams }

// OnRoute registers a callback for every route update received
// (per-upstream). Used by experiments that react to routing changes.
func (c *Client) OnRoute(fn func(upstreamID uint32, upd *wire.Update)) {
	c.mu.Lock()
	c.onRoute = fn
	c.mu.Unlock()
}

// OnPacket registers the data-plane receive handler. The packet and
// its Payload are valid only until fn returns (the tunnel decodes the
// next packet into the same memory): a handler that keeps the packet
// keeps p.Clone().
func (c *Client) OnPacket(fn func(*dataplane.Packet)) {
	c.mu.Lock()
	c.onPacket = fn
	c.mu.Unlock()
}

// sessHandler wires session events into the client.
type sessHandler struct {
	c          *Client
	upstreamID uint32
	bird       bool
}

func (h *sessHandler) Established(sess *bgp.Session) {
	c := h.c
	// Replay our announcements so a reconnected server reclaims the
	// routes it retained stale across the restart, then send end-of-RIB
	// to let it flush whatever we no longer announce.
	c.replayAnnounced(sess, h.upstreamID, h.bird)
	sess.Send(&wire.Update{})
	c.mu.Lock()
	c.synced[h.upstreamID] = sess
	c.mu.Unlock()
	select {
	case c.estNotify <- struct{}{}:
	default:
	}
}

func (h *sessHandler) UpdateReceived(sess *bgp.Session, upd *wire.Update) {
	h.c.handleUpdate(h.upstreamID, h.bird, sess, upd)
}

// UpdateBatchReceived opts the client into the session reader's batched
// delivery: one handler call (and one hold-timer reset) covers every
// message already buffered on the tunnel stream, which is what keeps a
// 64-client fleet's receive path off the mux's critical path during a
// full-table sync.
func (h *sessHandler) UpdateBatchReceived(sess *bgp.Session, upds []*wire.Update) {
	for _, upd := range upds {
		h.c.handleUpdate(h.upstreamID, h.bird, sess, upd)
	}
}

// Closed marks the session's view(s) stale on failure: routes stay
// usable while the server redials, and the replay + end-of-RIB of the
// next session sweeps out whatever is not re-announced.
func (h *sessHandler) Closed(_ *bgp.Session, err error) {
	if err == nil {
		return
	}
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if h.bird {
		for _, v := range c.views {
			v.MarkAllStale()
		}
		return
	}
	if v := c.views[h.upstreamID]; v != nil {
		v.MarkAllStale()
	}
}

// replayAnnounced re-sends every announced prefix relevant to the
// session that just established.
func (c *Client) replayAnnounced(sess *bgp.Session, upstreamID uint32, bird bool) {
	c.mu.Lock()
	type ann struct {
		p    netip.Prefix
		opts AnnounceOptions
	}
	anns := make([]ann, 0, len(c.announced))
	for p, opts := range c.announced {
		anns = append(anns, ann{p: p, opts: opts})
	}
	type rly struct {
		id    uint32
		p     netip.Prefix
		attrs *wire.Attrs
	}
	var rlys []rly
	for id, m := range c.relayed {
		if !bird && id != upstreamID {
			continue
		}
		for p, attrs := range m {
			rlys = append(rlys, rly{id: id, p: p, attrs: attrs})
		}
	}
	c.mu.Unlock()
	for _, a := range anns {
		ids := c.selectedUpstreams(a.opts)
		attrs := c.buildAttrs(a.opts)
		if bird {
			u := &wire.Update{Attrs: attrs}
			for _, id := range ids {
				u.Reach = append(u.Reach, wire.NLRI{Prefix: a.p, ID: wire.PathID(id)})
			}
			sess.Send(u)
			continue
		}
		for _, id := range ids {
			if id == upstreamID {
				sess.Send(&wire.Update{Attrs: attrs, Reach: []wire.NLRI{{Prefix: a.p}}})
				break
			}
		}
	}
	for _, r := range rlys {
		u := &wire.Update{Attrs: r.attrs, Reach: []wire.NLRI{{Prefix: r.p}}}
		if bird {
			u.Reach[0].ID = wire.PathID(r.id)
		}
		sess.Send(u)
	}
}

// handleUpdate stores received routes in the per-upstream view.
func (c *Client) handleUpdate(upstreamID uint32, bird bool, sess *bgp.Session, upd *wire.Update) {
	if upd.IsEndOfRIB() {
		// The server finished its replay: flush view entries it did not
		// re-announce (retained stale since the previous session died).
		c.mu.Lock()
		if bird {
			for _, v := range c.views {
				v.SweepStale()
			}
		} else if v := c.views[upstreamID]; v != nil {
			v.SweepStale()
		}
		c.mu.Unlock()
		return
	}
	viewFor := func(n wire.NLRI) (uint32, wire.PathID) {
		if bird {
			return uint32(n.ID), 0 // path ID addresses the upstream
		}
		return upstreamID, n.ID
	}
	if c.cfg.CountOnly {
		c.mu.Lock()
		for _, n := range upd.Withdrawn {
			vid, _ := viewFor(n)
			if c.counts[vid] > 0 {
				c.counts[vid]--
			}
		}
		if upd.Attrs != nil {
			for _, n := range upd.Reach {
				vid, _ := viewFor(n)
				c.counts[vid]++
			}
		}
		onRoute := c.onRoute
		c.mu.Unlock()
		if onRoute != nil {
			id := upstreamID
			if bird && len(upd.Reach) > 0 {
				id = uint32(upd.Reach[0].ID)
			}
			onRoute(id, upd)
		}
		return
	}
	// Intern once per UPDATE: all NLRIs (and, for a stable route, all
	// later re-announcements) share one stored attribute set.
	upd.Attrs = c.intern.Intern(upd.Attrs)
	c.mu.Lock()
	for _, n := range upd.Withdrawn {
		vid, pid := viewFor(n)
		if v := c.views[vid]; v != nil {
			v.Remove(n.Prefix, pid)
		}
	}
	if upd.Attrs != nil {
		now := c.clk.Now()
		firstAS := upd.Attrs.FirstAS()
		for _, n := range upd.Reach {
			vid, pid := viewFor(n)
			v := c.views[vid]
			if v == nil {
				v = rib.NewAdjRIB()
				v.SetInterner(c.intern)
				c.views[vid] = v
			}
			v.Set(&rib.Route{
				Prefix:  n.Prefix,
				Attrs:   upd.Attrs,
				Src:     rib.PeerKey{Addr: c.upstreamAddr(vid), PathID: pid},
				PeerAS:  firstAS,
				EBGP:    true,
				Learned: now,
			})
		}
	}
	onRoute := c.onRoute
	c.mu.Unlock()
	if onRoute != nil {
		// In BIRD mode attribute the update to the path-ID upstream
		// when unambiguous.
		id := upstreamID
		if bird && len(upd.Reach) > 0 {
			id = uint32(upd.Reach[0].ID)
		}
		onRoute(id, upd)
	}
}

// upstreamAddr returns the synthetic peer address for upstream id.
// Caller holds c.mu (c.prov is write-once before sessions start).
func (c *Client) upstreamAddr(id uint32) netip.Addr {
	for _, u := range c.prov.Upstreams {
		if u.ID == id {
			return u.PeerAddr
		}
	}
	return netip.Addr{}
}

// WaitEstablished blocks until every expected BGP session is up and has
// sent its establish-time replay: one per upstream in Quagga mode, one
// total in BIRD mode. The deadline
// runs on the injected clock, and waking is event-driven (no polling),
// so virtual-clock tests stay deterministic.
func (c *Client) WaitEstablished(timeout time.Duration) error {
	prov := c.provisioning()
	want := len(prov.Upstreams)
	if prov.Mode == muxproto.ModeBIRD {
		want = 1
	}
	c.mu.Lock()
	mux := c.mux
	c.mu.Unlock()
	deadline := c.clk.After(timeout)
	for {
		if c.syncedCount() >= want {
			return nil
		}
		select {
		case <-c.estNotify:
		case <-mux.Done():
			return fmt.Errorf("client: transport closed: %v", mux.Err())
		case <-deadline:
			return errors.New("client: sessions not established in time")
		}
	}
}

// Routes returns the routes received from upstream id (the per-peer
// view §3 promises: "clients receive routes exported by each peer").
func (c *Client) Routes(id uint32) []*rib.Route {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.views[id]
	if v == nil {
		return nil
	}
	var out []*rib.Route
	// The order is the view's: unspecified.
	v.Walk(func(r rib.Route) bool {
		out = append(out, &r)
		return true
	})
	return out
}

// RouteCount returns how many routes upstream id has sent (in
// Config.CountOnly mode, the running NLRI tally for that upstream).
func (c *Client) RouteCount(id uint32) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.CountOnly {
		return c.counts[id]
	}
	v := c.views[id]
	if v == nil {
		return 0
	}
	return v.Len()
}

// TotalRouteCount sums RouteCount across every upstream view (or
// counter, in CountOnly mode).
func (c *Client) TotalRouteCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	if c.cfg.CountOnly {
		for _, v := range c.counts {
			n += v
		}
		return n
	}
	for _, v := range c.views {
		n += v.Len()
	}
	return n
}

// RoutesFor returns every upstream's route for prefix p — the
// cross-peer comparison PoiRoot-style experiments need.
func (c *Client) RoutesFor(p netip.Prefix) map[uint32]*rib.Route {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[uint32]*rib.Route{}
	for id, v := range c.views {
		if r, ok := v.Get(p, 0); ok {
			out[id] = &r
		}
	}
	return out
}

// BestRoute runs the standard decision process across the per-peer
// views for p. PEERING servers never select routes; clients may.
func (c *Client) BestRoute(p netip.Prefix) *rib.Route {
	var best *rib.Route
	for _, r := range c.RoutesFor(p) {
		if best == nil || rib.Better(r, best) {
			best = r
		}
	}
	return best
}

// buildAttrs constructs announcement attributes from opts.
func (c *Client) buildAttrs(opts AnnounceOptions) *wire.Attrs {
	a := &wire.Attrs{Origin: wire.OriginIGP, NextHop: c.cfg.RouterID}
	// Path tail (origin side). Poisoned paths keep our ASN as the
	// origin — LIFEGUARD's "AS-path sandwiching" [us, poisoned, us] —
	// so the server's forged-origin filter stays satisfied.
	tail := opts.OriginASNs
	if len(tail) == 0 && len(opts.Poison) > 0 {
		tail = []uint32{c.asn()}
	}
	for i := len(tail) - 1; i >= 0; i-- {
		a.PrependAS(tail[i], 1)
	}
	for i := len(opts.Poison) - 1; i >= 0; i-- {
		a.PrependAS(opts.Poison[i], 1)
	}
	a.PrependAS(c.asn(), 1+opts.Prepend)
	for _, cm := range opts.Communities {
		a.AddCommunity(cm)
	}
	return a
}

// selectedUpstreams resolves opts.Upstreams (nil = all).
func (c *Client) selectedUpstreams(opts AnnounceOptions) []uint32 {
	if opts.Upstreams != nil {
		return opts.Upstreams
	}
	var ids []uint32
	for _, u := range c.provisioning().Upstreams {
		ids = append(ids, u.ID)
	}
	return ids
}

// Announce advertises prefix p with opts. The server enforces that p
// is within the client's allocation.
func (c *Client) Announce(p netip.Prefix, opts AnnounceOptions) error {
	attrs := c.buildAttrs(opts)
	ids := c.selectedUpstreams(opts)
	c.mu.Lock()
	c.announced[p] = opts
	bird := c.prov.Mode == muxproto.ModeBIRD
	var firstErr error
	if bird {
		sess := c.sessions[0]
		if sess == nil {
			c.mu.Unlock()
			return errors.New("client: BIRD session not up")
		}
		u := &wire.Update{Attrs: attrs}
		for _, id := range ids {
			u.Reach = append(u.Reach, wire.NLRI{Prefix: p, ID: wire.PathID(id)})
		}
		c.mu.Unlock()
		return sess.Send(u)
	}
	sessions := make(map[uint32]*bgp.Session, len(ids))
	for _, id := range ids {
		sessions[id] = c.sessions[id]
	}
	c.mu.Unlock()
	for _, id := range ids {
		sess := sessions[id]
		if sess == nil {
			continue
		}
		if err := sess.Send(&wire.Update{Attrs: attrs, Reach: []wire.NLRI{{Prefix: p}}}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Withdraw retracts p from the given upstreams (nil = all).
func (c *Client) Withdraw(p netip.Prefix, upstreams []uint32) error {
	ids := c.selectedUpstreams(AnnounceOptions{Upstreams: upstreams})
	c.mu.Lock()
	delete(c.announced, p)
	bird := c.prov.Mode == muxproto.ModeBIRD
	if bird {
		sess := c.sessions[0]
		c.mu.Unlock()
		if sess == nil {
			return errors.New("client: BIRD session not up")
		}
		u := &wire.Update{}
		for _, id := range ids {
			u.Withdrawn = append(u.Withdrawn, wire.NLRI{Prefix: p, ID: wire.PathID(id)})
		}
		return sess.Send(u)
	}
	sessions := make(map[uint32]*bgp.Session, len(ids))
	for _, id := range ids {
		sessions[id] = c.sessions[id]
	}
	c.mu.Unlock()
	for _, id := range ids {
		if sess := sessions[id]; sess != nil {
			sess.Send(&wire.Update{Withdrawn: []wire.NLRI{{Prefix: p}}})
		}
	}
	return nil
}

// Relay forwards a pre-built UPDATE verbatim to one upstream: the
// attributes are sent exactly as given (no ASN prepend, no LIFEGUARD
// sandwich — buildAttrs is bypassed entirely). This is the federation
// agent's conduit: an announcement vetted and transformed at a remote
// mux must cross this mux attribute-for-attribute intact, with only
// the server-side vetting (which is idempotent on an already-vetted
// path) applied again. Reach and Withdrawn prefixes are tracked per
// upstream so a session re-establishment replays them; end-of-RIB
// markers are passed through untracked.
func (c *Client) Relay(upstreamID uint32, upd *wire.Update) error {
	c.mu.Lock()
	if !upd.IsEndOfRIB() {
		m := c.relayed[upstreamID]
		if m == nil {
			m = make(map[netip.Prefix]*wire.Attrs)
			c.relayed[upstreamID] = m
		}
		for _, n := range upd.Withdrawn {
			delete(m, n.Prefix)
		}
		if upd.Attrs != nil {
			for _, n := range upd.Reach {
				m[n.Prefix] = upd.Attrs
			}
		}
	}
	bird := c.prov != nil && c.prov.Mode == muxproto.ModeBIRD
	key := upstreamID
	if bird {
		key = 0
	}
	sess := c.sessions[key]
	c.mu.Unlock()
	if sess == nil {
		return fmt.Errorf("client: no session toward upstream %d", upstreamID)
	}
	if !bird {
		return sess.Send(upd)
	}
	out := &wire.Update{Attrs: upd.Attrs, Refresh: upd.Refresh}
	for _, n := range upd.Withdrawn {
		out.Withdrawn = append(out.Withdrawn, wire.NLRI{Prefix: n.Prefix, ID: wire.PathID(upstreamID)})
	}
	for _, n := range upd.Reach {
		out.Reach = append(out.Reach, wire.NLRI{Prefix: n.Prefix, ID: wire.PathID(upstreamID)})
	}
	return sess.Send(out)
}

// SendPacket transmits a data-plane packet to the Internet through the
// server (subject to the server's spoof filter).
func (c *Client) SendPacket(pkt *dataplane.Packet) error {
	c.mu.Lock()
	p := c.pkt
	c.mu.Unlock()
	return p.Send(pkt)
}

// SessionCount reports how many BGP sessions are established.
func (c *Client) SessionCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.sessions {
		if s.State() == bgp.StateEstablished {
			n++
		}
	}
	return n
}

// syncedCount reports how many established sessions have sent their
// establish-time replay.
func (c *Client) syncedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for id, s := range c.sessions {
		if c.synced[id] == s && s.State() == bgp.StateEstablished {
			n++
		}
	}
	return n
}

// Close says goodbye properly and tears down the transport: each
// session sends a Cease NOTIFICATION so the server withdraws our routes
// immediately instead of retaining them for a graceful-restart window
// (that retention is for crashes and transport blips, not deliberate
// departures).
func (c *Client) Close() error {
	c.mu.Lock()
	sessions := make([]*bgp.Session, 0, len(c.sessions))
	for _, s := range c.sessions {
		sessions = append(sessions, s)
	}
	mux := c.mux
	c.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
	return mux.Close()
}
