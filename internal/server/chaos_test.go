package server

// The orchestrated chaos suite: a 1-upstream × 8-client mux driven
// through malformed floods, prefix-limit breaches, slow-client stalls,
// and kill/warm-restart cycles, all on the virtual clock so every run
// is deterministic. The common assertion across scenarios is blast
// radius: whatever one client or one transport does, healthy clients'
// tables must stay attribute-for-attribute identical to a fault-free
// control rig, and the upstream peering must never reset.

import (
	"encoding/binary"
	"fmt"
	"maps"
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"peering/internal/bgp"
	"peering/internal/bufconn"
	"peering/internal/client"
	"peering/internal/clock"
	"peering/internal/faultconn"
	"peering/internal/mrt"
	"peering/internal/muxproto"
	"peering/internal/policy/compiled"
	"peering/internal/rib"
	"peering/internal/router"
	"peering/internal/tunnel"
	"peering/internal/wire"
)

// chaosServer builds a server on a virtual clock with the given quota.
// Its cleanup ends with the resource invariant (newCheckedServer).
func chaosServer(t *testing.T, clk *clock.Virtual, quota QuotaConfig) *Server {
	t.Helper()
	return newCheckedServer(t, Config{
		Site:      "chaos03",
		ASN:       testbedASN,
		RouterID:  addr("184.164.224.1"),
		Mode:      muxproto.ModeQuagga,
		Clock:     clk,
		Dampening: relaxedDampening(),
		Reconnect: bgp.Backoff{Initial: time.Second, Max: 8 * time.Second, Factor: 2},
		Quota:     quota,
	})
}

// chaosUpstreamConfig is the single upstream every chaos rig peers with.
func chaosUpstreamConfig() UpstreamConfig {
	return UpstreamConfig{
		ID: 1, Name: "up1", ASN: 3356,
		PeerAddr: addr("80.249.208.10"), LocalAddr: addr("80.249.208.1"),
	}
}

// attachChaosUpstream wires one upstream router to srv over conn (a
// plain pipe when nil) and waits for the session.
func attachChaosUpstream(t *testing.T, srv *Server, clk *clock.Virtual) (*router.Router, *Upstream) {
	t.Helper()
	up := router.New(router.Config{AS: 3356, RouterID: addr("4.69.0.1"), Clock: clk})
	u, err := srv.AddUpstream(chaosUpstreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := up.AddPeer(router.PeerConfig{
		Addr: addr("80.249.208.1"), LocalAddr: addr("80.249.208.10"), AS: testbedASN,
	})
	ca, cb := bufconn.Pipe()
	srv.AttachUpstream(u, ca)
	up.Attach(p, cb)
	waitFor(t, "upstream session", func() bool { return u.Established() })
	return up, u
}

// connectChaosClient registers and connects one well-behaved client.
func connectChaosClient(t *testing.T, srv *Server, clk *clock.Virtual, id string, tun netip.Addr, alloc ...netip.Prefix) *client.Client {
	t.Helper()
	if err := srv.RegisterClient(ClientAccount{ID: id, Allocation: alloc, TunnelAddr: tun}); err != nil {
		t.Fatal(err)
	}
	ca, cb := bufconn.Pipe()
	if err := srv.AcceptClient(id, ca); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Connect(client.Config{Name: id, RouterID: tun, Clock: clk}, cb)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitEstablished(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// tableOf flattens one per-upstream client view into prefix → marshaled
// attribute block — the strictest attribute-for-attribute comparison
// the wire format allows.
func tableOf(t testing.TB, routes []*rib.Route) map[netip.Prefix]string {
	t.Helper()
	out := make(map[netip.Prefix]string, len(routes))
	for _, r := range routes {
		b, err := wire.MarshalAttrs(r.Attrs, wire.DefaultOptions)
		if err != nil {
			t.Fatalf("marshal attrs for %v: %v", r.Prefix, err)
		}
		out[r.Prefix] = string(b)
	}
	return out
}

// adjInOf captures an upstream's Adj-RIB-In the same way.
func adjInOf(t testing.TB, u *Upstream) map[netip.Prefix]string {
	t.Helper()
	var routes []*rib.Route
	u.mu.RLock()
	for i := 0; i < u.adjIn.Shards(); i++ {
		u.adjIn.ReadShard(i, func(_ uint64, t *rib.AdjRIB) {
			t.Walk(func(r rib.Route) bool {
				routes = append(routes, &r)
				return true
			})
		})
	}
	u.mu.RUnlock()
	return tableOf(t, routes)
}

// announceWorld originates a table with diverse attributes — prepends,
// MEDs, communities, poisoned paths — so attribute-for-attribute
// comparisons have teeth. Returns the number of prefixes.
func announceWorld(up *router.Router) int {
	specs := []router.AnnounceSpec{
		{},
		{Prepend: 2},
		{MED: 50, MEDSet: true},
		{Communities: []wire.Community{0x2FB90001, 0x2FB90002}},
		{Poison: []uint32{174}},
		{Prepend: 1, MED: 10, MEDSet: true, Communities: []wire.Community{0x2FB9FFFF}},
	}
	n := 0
	for i, spec := range specs {
		for j := 0; j < 3; j++ {
			up.Announce(prefix(fmt.Sprintf("96.%d.%d.0/24", i, j)), spec)
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------
// Raw-wire machinery for the evil client

// rawBGPUpdate frames body as one BGP UPDATE — no codec, no validation:
// exactly what an attacker's socket can produce.
func rawBGPUpdate(body []byte) []byte {
	msg := make([]byte, wire.HeaderLen+len(body))
	for i := 0; i < wire.MarkerLen; i++ {
		msg[i] = 0xff
	}
	binary.BigEndian.PutUint16(msg[wire.MarkerLen:], uint16(len(msg)))
	msg[wire.HeaderLen-1] = byte(wire.MsgUpdate)
	copy(msg[wire.HeaderLen:], body)
	return msg
}

// v4NLRI encodes one IPv4 prefix in RFC 4271 compact form.
func v4NLRI(p netip.Prefix) []byte {
	a := p.Addr().As4()
	nb := (p.Bits() + 7) / 8
	return append([]byte{byte(p.Bits())}, a[:nb]...)
}

// malformedOriginUpdate carries an ORIGIN of impossible length: an RFC
// 7606 treat-as-withdraw error — it must cost the sender its routes,
// not the mux a session.
func malformedOriginUpdate(p netip.Prefix) []byte {
	body := []byte{0, 0, 0, 5, 0x40, 1, 2, 0, 0}
	return rawBGPUpdate(append(body, v4NLRI(p)...))
}

// aggregatorDiscardUpdate is well-formed except for a truncated
// AGGREGATOR: the attribute-discard tier — the route must survive
// without the attribute.
func aggregatorDiscardUpdate(p netip.Prefix) []byte {
	attrs := []byte{
		0x40, 1, 1, 0, // ORIGIN igp
		0x40, 2, 6, 2, 1, 0x00, 0x00, 0xB7, 0xD9, // AS_PATH [47065], 4-octet
		0x40, 3, 4, 10, 250, 0, 66, // NEXT_HOP 10.250.0.66
		0xC0, 7, 3, 0, 0, 0, // AGGREGATOR, impossible length 3
	}
	body := []byte{0, 0, 0, byte(len(attrs))}
	body = append(body, attrs...)
	return rawBGPUpdate(append(body, v4NLRI(p)...))
}

// poisonNLRIUpdate has a 96-bit IPv4 prefix in the NLRI field: RFC 7606
// keeps NLRI errors at session-reset severity (§5.3) because nothing
// after the bad length can be trusted.
func poisonNLRIUpdate() []byte {
	return rawBGPUpdate([]byte{0, 0, 0, 0, 96, 1, 2, 3})
}

// evilPeer is a raw mux client: it completes the tunnel handshake and
// the BGP OPEN exchange by hand, then injects attacker-controlled bytes
// the real client library could never produce.
type evilPeer struct {
	mux     *tunnel.Mux
	streams chan *tunnel.Stream
}

func startEvilPeer(conn net.Conn) *evilPeer {
	e := &evilPeer{streams: make(chan *tunnel.Stream, 4)}
	e.mux = tunnel.NewMux(conn, func(st *tunnel.Stream) {
		switch {
		case st.ID() == muxproto.StreamControl:
			go func() {
				if _, err := muxproto.ReadProvisioning(st); err != nil {
					return
				}
				st.Write([]byte("ok\n"))
			}()
		case st.ID() >= muxproto.StreamBGPBase:
			e.streams <- st
		}
	})
	return e
}

// openSession completes the OPEN/KEEPALIVE exchange on the next BGP
// stream the server dials, advertising hold time 0 so the virtual
// clock never owes the session a keepalive.
func (e *evilPeer) openSession(t *testing.T) *tunnel.Stream {
	t.Helper()
	var st *tunnel.Stream
	select {
	case st = <-e.streams:
	case <-time.After(10 * time.Second):
		t.Fatal("server never opened a BGP stream toward the evil client")
	}
	msg, err := wire.ReadMessage(st, wire.DefaultOptions)
	if err != nil {
		t.Fatalf("evil: read server OPEN: %v", err)
	}
	if _, ok := msg.(*wire.Open); !ok {
		t.Fatalf("evil: expected OPEN, got %v", msg.Type())
	}
	for _, m := range []wire.Message{
		&wire.Open{AS: 64999, HoldTime: 0, BGPID: addr("10.250.0.66")},
		&wire.Keepalive{},
	} {
		b, err := wire.Marshal(m, wire.DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Write(b); err != nil {
			t.Fatalf("evil: handshake write: %v", err)
		}
	}
	if msg, err = wire.ReadMessage(st, wire.DefaultOptions); err != nil {
		t.Fatalf("evil: read server KEEPALIVE: %v", err)
	} else if _, ok := msg.(*wire.Keepalive); !ok {
		t.Fatalf("evil: expected KEEPALIVE, got %v", msg.Type())
	}
	return st
}

// ---------------------------------------------------------------------
// Scenario 1: malformed flood

// TestChaosMalformedFloodContained is the containment conformance test:
// one of eight clients floods the mux with UPDATEs whose attributes are
// malformed at the treat-as-withdraw tier, plus one at the
// attribute-discard tier, plus a final NLRI-poisoned message at the
// session-reset tier. Required outcome per tier: the flood costs the
// evil client nothing but its own routes, the discarded attribute costs
// the route nothing at all, the poisoned NLRI costs exactly one session
// — and through all of it the upstream peering never resets and the
// seven healthy clients' tables stay attribute-for-attribute identical
// to a fault-free control rig fed the same world.
func TestChaosMalformedFloodContained(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))

	// Fault-free control rig: same world, one client, no evil.
	ctl := chaosServer(t, clk, QuotaConfig{})
	ctlUp, _ := attachChaosUpstream(t, ctl, clk)
	ctlCl := connectChaosClient(t, ctl, clk, "ctl", addr("10.250.1.1"), prefix("184.164.224.0/24"))

	// Chaos rig: 7 healthy clients + 1 evil = the 8-client mux.
	srv := chaosServer(t, clk, QuotaConfig{})
	up, u := attachChaosUpstream(t, srv, clk)
	var healthy []*client.Client
	for i := 0; i < 7; i++ {
		cl := connectChaosClient(t, srv, clk, fmt.Sprintf("exp%d", i),
			addr(fmt.Sprintf("10.250.0.%d", i+1)),
			prefix(fmt.Sprintf("184.164.%d.0/24", 224+i)))
		healthy = append(healthy, cl)
	}
	evilAlloc := prefix("184.164.231.0/24")
	if err := srv.RegisterClient(ClientAccount{
		ID: "evil", Allocation: []netip.Prefix{evilAlloc}, TunnelAddr: addr("10.250.0.66"),
	}); err != nil {
		t.Fatal(err)
	}
	ca, cb := bufconn.Pipe()
	if err := srv.AcceptClient("evil", ca); err != nil {
		t.Fatal(err)
	}
	evil := startEvilPeer(cb)
	st := evil.openSession(t)

	nWorld := announceWorld(ctlUp)
	announceWorld(up)
	waitFor(t, "control convergence", func() bool { return ctlCl.RouteCount(1) == nWorld })
	waitFor(t, "chaos convergence", func() bool {
		for _, cl := range healthy {
			if cl.RouteCount(1) != nWorld {
				return false
			}
		}
		return true
	})

	// --- Fault: 50 treat-as-withdraw UPDATEs and one attribute-discard
	// UPDATE, raw on the evil client's session. ---
	const flood = 50
	for i := 0; i < flood; i++ {
		if _, err := st.Write(malformedOriginUpdate(evilAlloc)); err != nil {
			t.Fatalf("evil: flood write %d: %v", i, err)
		}
	}
	if _, err := st.Write(aggregatorDiscardUpdate(evilAlloc)); err != nil {
		t.Fatal(err)
	}

	errCount := func(action string) uint64 { return srv.metrics.bgp.Errors.With(action).Value() }
	waitFor(t, "RFC 7606 containment actions", func() bool {
		return errCount("treat_as_withdraw") >= flood && errCount("attribute_discard") >= 1
	})
	// The discard-tier UPDATE was an otherwise-valid announcement: minus
	// its AGGREGATOR it must clear the vet pipeline and reach the world.
	waitFor(t, "discard-tier route at upstream", func() bool {
		return up.LocRIB().Best(evilAlloc) != nil
	})
	if got := errCount("session_reset"); got != 0 {
		t.Fatalf("flood at the treat-as-withdraw tier reset %d sessions", got)
	}
	if !u.Established() {
		t.Fatal("upstream session lost during malformed flood")
	}

	ctlTable := tableOf(t, ctlCl.Routes(1))
	if len(ctlTable) != nWorld {
		t.Fatalf("control table = %d prefixes, want %d", len(ctlTable), nWorld)
	}
	for i, cl := range healthy {
		if got := tableOf(t, cl.Routes(1)); !maps.Equal(got, ctlTable) {
			t.Fatalf("healthy client %d diverged from fault-free control during flood:\n got %d prefixes, want %d", i, len(got), len(ctlTable))
		}
	}

	// --- Escalation: NLRI damage stays fatal (§5.3). The reset must hit
	// exactly the evil session and nothing else. ---
	if _, err := st.Write(poisonNLRIUpdate()); err != nil {
		t.Fatal(err)
	}
	var notif *wire.Notification
	for i := 0; i < 1000; i++ {
		msg, err := wire.ReadMessage(st, wire.DefaultOptions)
		if err != nil {
			t.Fatalf("evil: awaiting NOTIFICATION: %v", err)
		}
		if n, ok := msg.(*wire.Notification); ok {
			notif = n
			break
		}
	}
	if notif == nil {
		t.Fatal("no NOTIFICATION for NLRI-poisoned UPDATE")
	}
	if notif.Code != wire.CodeUpdateMessageError || notif.Subcode != wire.SubInvalidNetworkField {
		t.Fatalf("NOTIFICATION = %d/%d, want %d/%d (invalid network field)",
			notif.Code, notif.Subcode, wire.CodeUpdateMessageError, wire.SubInvalidNetworkField)
	}
	waitFor(t, "session-reset accounting", func() bool { return errCount("session_reset") == 1 })
	if !u.Established() {
		t.Fatal("upstream session lost to a client's NLRI poison")
	}
	if n := srv.ClientCount(); n != 8 {
		t.Fatalf("client count = %d after evil session reset, want 8 (transport survives)", n)
	}
	for i, cl := range healthy {
		if got := tableOf(t, cl.Routes(1)); !maps.Equal(got, ctlTable) {
			t.Fatalf("healthy client %d diverged after evil session reset", i)
		}
	}
}

// ---------------------------------------------------------------------
// Scenario 2: prefix-limit breach

// TestChaosPrefixQuotaTiers walks one greedy client through the
// max-prefix tiers — warn at 80%%, dampen-new at the limit, teardown
// after three strikes — while a well-behaved client on the same mux
// keeps its announcement and its session.
func TestChaosPrefixQuotaTiers(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	srv := chaosServer(t, clk, QuotaConfig{MaxPrefixes: 4, TeardownAfter: 3})
	up, u := attachChaosUpstream(t, srv, clk)

	greedy := connectChaosClient(t, srv, clk, "greedy", addr("10.250.0.1"), prefix("184.164.224.0/21"))
	goodPfx := prefix("184.164.232.0/24")
	good := connectChaosClient(t, srv, clk, "good", addr("10.250.0.2"), goodPfx)
	if err := good.Announce(goodPfx, client.AnnounceOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "good client's route", func() bool { return up.LocRIB().Best(goodPfx) != nil })

	greedyPfx := func(i int) netip.Prefix { return prefix(fmt.Sprintf("184.164.%d.0/24", 224+i)) }
	// Four prefixes fit the limit; the fourth crosses the 80% warn line.
	for i := 0; i < 4; i++ {
		if err := greedy.Announce(greedyPfx(i), client.AnnounceOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "adverts within quota", func() bool {
		for i := 0; i < 4; i++ {
			if up.LocRIB().Best(greedyPfx(i)) == nil {
				return false
			}
		}
		return srv.Stats().QuotaWarnings == 1
	})

	// Three announcements over the limit: dampen-new rejects each, the
	// third strike fires the teardown tier.
	for i := 4; i < 7; i++ {
		if err := greedy.Announce(greedyPfx(i), client.AnnounceOptions{}); err != nil {
			break // session may already be ceasing: that IS the teardown
		}
	}
	waitFor(t, "teardown tier", func() bool {
		st := srv.Stats()
		return st.QuotaRejected >= 3 && st.QuotaTeardowns == 1
	})
	// The torn-down client's routes leave the world and its transport
	// closes; the rejected overflow prefixes never made it out.
	waitFor(t, "greedy client evicted", func() bool {
		for i := 0; i < 4; i++ {
			if up.LocRIB().Best(greedyPfx(i)) != nil {
				return false
			}
		}
		return srv.ClientCount() == 1
	})
	for i := 4; i < 7; i++ {
		if up.LocRIB().Best(greedyPfx(i)) != nil {
			t.Fatalf("over-quota prefix %v escaped to the upstream", greedyPfx(i))
		}
	}
	// Blast radius: the upstream peering and the good client are whole.
	if !u.Established() {
		t.Fatal("upstream session lost to a quota teardown")
	}
	if up.LocRIB().Best(goodPfx) == nil {
		t.Fatal("well-behaved client's route withdrawn by another client's teardown")
	}
	if good.SessionCount() != 1 {
		t.Fatalf("good client sessions = %d, want 1", good.SessionCount())
	}
}

// ---------------------------------------------------------------------
// Scenario 3: slow-client stall

// TestChaosSlowClientShedAndResync stalls one client's transport while
// the upstream announces a table far beyond the client's fan-out queue
// cap. The overflow must be shed (bounding the memory the laggard can
// strand) without slowing the healthy clients, and the post-stall
// resync must rebuild the laggard's view to attribute-for-attribute
// parity.
func TestChaosSlowClientShedAndResync(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	srv := chaosServer(t, clk, QuotaConfig{MaxQueueOps: 64})
	up, u := attachChaosUpstream(t, srv, clk)

	// The slow client rides a stallable transport.
	if err := srv.RegisterClient(ClientAccount{
		ID: "slow", Allocation: []netip.Prefix{prefix("184.164.224.0/24")}, TunnelAddr: addr("10.250.0.1"),
	}); err != nil {
		t.Fatal(err)
	}
	fcSrv, fcCli := faultconn.Pipe(clk)
	if err := srv.AcceptClient("slow", fcSrv); err != nil {
		t.Fatal(err)
	}
	slow, err := client.Connect(client.Config{Name: "slow", RouterID: addr("10.250.0.1"), Clock: clk}, fcCli)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slow.Close() })
	if err := slow.WaitEstablished(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	h1 := connectChaosClient(t, srv, clk, "h1", addr("10.250.0.2"), prefix("184.164.225.0/24"))
	h2 := connectChaosClient(t, srv, clk, "h2", addr("10.250.0.3"), prefix("184.164.226.0/24"))

	// Distinct MEDs make every announcement its own attribute group, so
	// each costs the stalled session one UPDATE — the pressure that
	// fills the send queue and then the fan-out queue.
	worldPfx := func(i int) netip.Prefix { return prefix(fmt.Sprintf("96.%d.%d.0/24", i/250, i%250)) }
	const preStall, total = 120, 820
	for i := 0; i < preStall; i++ {
		up.Announce(worldPfx(i), router.AnnounceSpec{MED: uint32(i), MEDSet: true})
	}
	waitFor(t, "pre-stall convergence", func() bool {
		return slow.RouteCount(1) == preStall && h1.RouteCount(1) == preStall && h2.RouteCount(1) == preStall
	})
	base := srv.Stats()

	// --- Fault: the slow client's transport stops making progress
	// (zero-window peer), then the world announces 700 more routes. ---
	fcSrv.Stall()
	for i := preStall; i < total; i++ {
		up.Announce(worldPfx(i), router.AnnounceSpec{MED: uint32(i), MEDSet: true})
	}
	waitFor(t, "healthy convergence and shed", func() bool {
		return h1.RouteCount(1) == total && h2.RouteCount(1) == total &&
			srv.Stats().FanoutShed > base.FanoutShed
	})
	if slow.RouteCount(1) == total {
		t.Fatal("stalled client converged while shedding — stall fault ineffective")
	}
	if !u.Established() {
		t.Fatal("upstream session lost while a client stalled")
	}

	// --- Heal: writes flow again; the resync rebuilds the laggard. ---
	fcSrv.Unstall()
	waitFor(t, "resync convergence", func() bool {
		return slow.RouteCount(1) == total && srv.Stats().FanoutResyncs > base.FanoutResyncs
	})
	want := tableOf(t, h1.Routes(1))
	if got := tableOf(t, slow.Routes(1)); !maps.Equal(got, want) {
		t.Fatalf("resynced client diverged from healthy peer: %d vs %d prefixes", len(got), len(want))
	}
	if n := srv.ClientCount(); n != 3 {
		t.Fatalf("client count = %d, want 3", n)
	}
	// The resync is a replay through the queue, so it is counted like
	// one: the healthy pair's live routes plus at least one whole table
	// for the laggard.
	wantRelayed := uint64(2*(total-preStall) + total)
	waitFor(t, "resynced table on the relay counters", func() bool {
		return srv.Stats().RoutesRelayedToClients-base.RoutesRelayedToClients >= wantRelayed
	})
}

// TestChaosStalledClientReaped closes a client's transport while its
// flusher is blocked writing to it. The flusher is also the client's
// reaper, so the close must release the write: the client detaches, and
// the cleanup's resource check finds no frame, buffer or goroutine left
// behind a transport that never drained.
func TestChaosStalledClientReaped(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	srv := chaosServer(t, clk, QuotaConfig{})
	up, u := attachChaosUpstream(t, srv, clk)
	if err := srv.RegisterClient(ClientAccount{
		ID: "slow", Allocation: []netip.Prefix{prefix("184.164.224.0/24")}, TunnelAddr: addr("10.250.0.1"),
	}); err != nil {
		t.Fatal(err)
	}
	fcSrv, fcCli := faultconn.Pipe(clk)
	if err := srv.AcceptClient("slow", fcSrv); err != nil {
		t.Fatal(err)
	}
	slow, err := client.Connect(client.Config{Name: "slow", RouterID: addr("10.250.0.1"), Clock: clk}, fcCli)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slow.Close() })
	if err := slow.WaitEstablished(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The join's End-of-RIB is on the wire (the counter moves after the
	// write), so the flusher is idle when the stall begins.
	waitFor(t, "the join's replay to drain", func() bool {
		return srv.QueueDepths()["slow"] == 0 && srv.Stats().UpdatesToClients > 0
	})

	// The first route's frame is taken by the flusher, which blocks
	// writing it; the second then has nobody to take it.
	fcSrv.Stall()
	up.Announce(prefix("96.0.0.0/24"), router.AnnounceSpec{})
	waitFor(t, "the flusher to take the first frame", func() bool {
		return u.RoutesIn() == 1 && srv.QueueDepths()["slow"] == 0
	})
	up.Announce(prefix("96.0.1.0/24"), router.AnnounceSpec{})
	waitFor(t, "a frame queued behind the blocked write", func() bool {
		return u.RoutesIn() == 2 && srv.QueueDepths()["slow"] > 0
	})
	if n := slow.RouteCount(1); n != 0 {
		t.Fatalf("stalled client received %d routes — stall fault ineffective", n)
	}

	fcSrv.Close()
	waitFor(t, "the stalled client to be reaped", func() bool { return srv.ClientCount() == 0 })
	if !u.Established() {
		t.Fatal("upstream session lost with a stalled client's transport")
	}
}

// ---------------------------------------------------------------------
// Scenario 4: kill -9 and warm restart

// TestChaosKillAndWarmRestart kills a server mid-segment — no flush, no
// goodbye — and verifies the acceptance criterion: a new process warm-
// restores the Adj-RIB-In from the newest archive snapshot plus the
// update tail, a reconnecting client converges from that warm table
// before the upstream session returns, and when the (restarted, one
// route poorer) upstream replays its table, only the diff moves: the
// surviving routes are never withdrawn and the dropped route is swept
// at End-of-RIB.
func TestChaosKillAndWarmRestart(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	dir := t.TempDir()

	srvA := chaosServer(t, clk, QuotaConfig{})
	arch, err := mrt.NewArchive(mrt.ArchiveConfig{Dir: dir, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	srvA.AttachArchive(arch)

	upA := router.New(router.Config{AS: 3356, RouterID: addr("4.69.0.1"), Clock: clk})
	uA, err := srvA.AddUpstream(chaosUpstreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	pA := upA.AddPeer(router.PeerConfig{
		Addr: addr("80.249.208.1"), LocalAddr: addr("80.249.208.10"), AS: testbedASN,
	})
	caA, cbA := bufconn.Pipe()
	srvA.AttachUpstream(uA, caA)
	upA.Attach(pA, cbA)
	waitFor(t, "upstream session", func() bool { return uA.Established() })

	rts := []netip.Prefix{
		prefix("96.0.0.0/24"), prefix("96.0.1.0/24"), prefix("96.0.2.0/24"), prefix("96.0.3.0/24"),
	}
	specs := []router.AnnounceSpec{
		{},
		{Prepend: 2},
		{MED: 50, MEDSet: true},
		{Communities: []wire.Community{0x2FB90001}},
	}
	for i, p := range rts {
		upA.Announce(p, specs[i])
	}
	waitFor(t, "archive baseline", func() bool { return uA.RoutesIn() == len(rts) })
	// Seal the segment: the rotation hook dumps a TABLE_DUMP_V2 snapshot
	// of the four-route table.
	if _, err := arch.Rotate(); err != nil {
		t.Fatal(err)
	}
	// The world keeps moving into the live segment: one new route, one
	// withdrawal. This tail is what distinguishes warm restart from
	// restore-from-snapshot.
	tailPfx := prefix("96.0.4.0/24")
	upA.Announce(tailPfx, router.AnnounceSpec{MED: 99, MEDSet: true})
	upA.Withdraw(rts[3])
	waitFor(t, "tail applied", func() bool {
		table := adjInOf(t, uA)
		_, hasTail := table[tailPfx]
		_, hasDead := table[rts[3]]
		return len(table) == 4 && hasTail && !hasDead
	})
	want := adjInOf(t, uA)

	// --- Kill -9: transports sever mid-segment; nothing is sealed,
	// nothing says goodbye. The unsealed live segment on disk is all a
	// successor gets. ---
	caA.Close()
	cbA.Close()

	srvB := chaosServer(t, clk, QuotaConfig{})
	uB, err := srvB.AddUpstream(chaosUpstreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := srvB.WarmRestore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot == "" || st.SnapshotRoutes != 4 {
		t.Fatalf("warm restore snapshot = %q (%d routes), want 4 routes", st.Snapshot, st.SnapshotRoutes)
	}
	// Both segments share the frozen clock's stamp, so both replay: the
	// sealed one (EoR + 4 announcements) idempotently, the live one
	// (announce + withdraw) bringing the diff. 7 applied updates total.
	if st.TailSegments != 2 || st.TailUpdates != 7 || st.Skipped != 0 {
		t.Fatalf("warm restore tail = %d segments / %d updates / %d skipped, want 2/7/0",
			st.TailSegments, st.TailUpdates, st.Skipped)
	}
	if st.Restored != 4 {
		t.Fatalf("restored %d routes, want 4", st.Restored)
	}
	if got := adjInOf(t, uB); !maps.Equal(got, want) {
		t.Fatalf("warm-restored Adj-RIB-In diverged from pre-kill table: %d vs %d prefixes", len(got), len(want))
	}
	if got := srvB.Stats().StaleRoutesRetained; got != 4 {
		t.Fatalf("stale retained = %d, want 4 (every restored route awaits the live replay)", got)
	}

	// A client connects to the successor BEFORE the upstream session
	// returns: it must converge from the warm table alone.
	cl := connectChaosClient(t, srvB, clk, "exp1", addr("10.250.0.1"), prefix("184.164.224.0/24"))
	waitFor(t, "client convergence from disk", func() bool { return cl.RouteCount(1) == 4 })
	if got := tableOf(t, cl.Routes(1)); !maps.Equal(got, want) {
		t.Fatal("client's warm-start view diverged from the pre-kill table")
	}
	var mu sync.Mutex
	withdrawals := make(map[netip.Prefix]int)
	cl.OnRoute(func(_ uint32, upd *wire.Update) {
		mu.Lock()
		for _, n := range upd.Withdrawn {
			withdrawals[n.Prefix]++
		}
		mu.Unlock()
	})

	// --- The upstream comes back, restarted and one route poorer: it no
	// longer originates the tail prefix. Its replay + End-of-RIB must
	// move only that diff. ---
	upB := router.New(router.Config{AS: 3356, RouterID: addr("4.69.0.1"), Clock: clk})
	for i := 0; i < 3; i++ {
		upB.Announce(rts[i], specs[i])
	}
	pB := upB.AddPeer(router.PeerConfig{
		Addr: addr("80.249.208.1"), LocalAddr: addr("80.249.208.10"), AS: testbedASN,
	})
	caB, cbB := bufconn.Pipe()
	srvB.AttachUpstream(uB, caB)
	upB.Attach(pB, cbB)
	waitFor(t, "upstream recovery", func() bool { return uB.Established() })

	waitFor(t, "end-of-RIB sweep of the dropped route", func() bool {
		return cl.RouteCount(1) == 3 && srvB.Stats().StaleRoutesFlushed == 1
	})
	delete(want, tailPfx)
	if got := tableOf(t, cl.Routes(1)); !maps.Equal(got, want) {
		t.Fatal("client table after recovery diverged from the surviving routes")
	}
	// The acceptance criterion's heart: surviving routes were refreshed
	// in place — the client never saw them withdrawn.
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 3; i++ {
		if n := withdrawals[rts[i]]; n != 0 {
			t.Fatalf("surviving route %v withdrawn %d times during warm restart", rts[i], n)
		}
	}
	if withdrawals[tailPfx] == 0 {
		t.Fatal("route dropped by the restarted upstream was never swept")
	}
}

// TestWarmRestoreHonoursPolicy: the archive records what the peers sent,
// not what the filter let through, so a warm restore must vet what it
// reads like any live UPDATE. The same deny rule is loaded on both
// incarnations (the successor adds one the predecessor lacked): neither
// the announcement the live mux rejected, nor the one its snapshot took
// under the laxer rules, may reach the successor's Adj-RIB-In or a
// client that joins before the upstream returns.
func TestWarmRestoreHonoursPolicy(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	dir := t.TempDir()
	denied, laterDenied, permitted := prefix("96.0.9.0/24"), prefix("96.0.8.0/24"), prefix("96.0.0.0/24")
	deny := func(ps ...netip.Prefix) *compiled.RuleSet {
		rs := &compiled.RuleSet{}
		for _, p := range ps {
			rs.Prefixes = append(rs.Prefixes, compiled.PrefixRule{Prefix: p})
		}
		return rs
	}

	srvA := chaosServer(t, clk, QuotaConfig{})
	srvA.LoadPolicy(deny(denied))
	arch, err := mrt.NewArchive(mrt.ArchiveConfig{Dir: dir, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	srvA.AttachArchive(arch)
	upA, uA := attachChaosUpstream(t, srvA, clk)
	for _, p := range []netip.Prefix{denied, laterDenied, permitted} {
		upA.Announce(p, router.AnnounceSpec{})
	}
	waitFor(t, "live mux vets its upstream", func() bool {
		return uA.RoutesIn() == 2 && srvA.Stats().PolicyRejected == 1
	})
	// Seal the segment so the restore reads a snapshot as well as a tail.
	if _, err := arch.Rotate(); err != nil {
		t.Fatal(err)
	}
	srvA.Close() // the archive on disk is all the successor gets

	srvB := chaosServer(t, clk, QuotaConfig{})
	srvB.LoadPolicy(deny(denied, laterDenied))
	uB, err := srvB.AddUpstream(chaosUpstreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := srvB.WarmRestore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotRoutes != 2 || st.TailUpdates == 0 {
		t.Fatalf("warm restore read %d snapshot routes and %d tail updates, want 2 and some", st.SnapshotRoutes, st.TailUpdates)
	}
	want := adjInOf(t, uB)
	if _, ok := want[permitted]; !ok || len(want) != 1 || st.Restored != 1 {
		t.Fatalf("warm-restored Adj-RIB-In holds %v (restored %d), want only %v",
			slices.Collect(maps.Keys(want)), st.Restored, permitted)
	}
	// The tail offered the denied route once; the snapshot and the tail
	// each offered the one only the successor denies.
	if got := rejectCount(srvB, compiled.ClassPrefix); got != 3 {
		t.Fatalf("successor rejected %d restored routes, want 3", got)
	}
	cl := connectChaosClient(t, srvB, clk, "exp1", addr("10.250.0.1"), prefix("184.164.224.0/24"))
	waitFor(t, "client convergence from disk", func() bool { return cl.RouteCount(1) == 1 })
	time.Sleep(20 * time.Millisecond) // a leaked route would trail the permitted one
	if got := tableOf(t, cl.Routes(1)); !maps.Equal(got, want) {
		t.Fatalf("client joined before the upstream returned and holds %v, want only %v",
			slices.Collect(maps.Keys(got)), permitted)
	}
}

// ---------------------------------------------------------------------
// Scenario 5: shared-frame broadcast vs a stalled laggard

// TestChaosFrameShedAndResync drives batched ingest — shared
// encode-once frames broadcast to every client — against a mux whose
// slowest client stalls at a tiny queue cap. Healthy
// clients must converge from the shared frames; the laggard's frames
// must shed mid-broadcast without losing withdrawals; and once the
// transport heals, the auto-resync must rebuild the laggard to
// attribute-for-attribute parity with a healthy peer.
func TestChaosFrameShedAndResync(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	srv := newCheckedServer(t, Config{
		Site: "chaos05", ASN: testbedASN, RouterID: addr("184.164.224.1"),
		Mode: muxproto.ModeQuagga, Clock: clk, Shards: 8,
		Dampening: relaxedDampening(),
		Reconnect: bgp.Backoff{Initial: time.Second, Max: 8 * time.Second, Factor: 2},
		Quota:     QuotaConfig{MaxQueueOps: 64},
	})
	_, u := attachChaosUpstream(t, srv, clk)

	// The laggard rides a stallable transport; two healthy clients ride
	// plain pipes.
	if err := srv.RegisterClient(ClientAccount{
		ID: "slow", Allocation: []netip.Prefix{prefix("184.164.224.0/24")}, TunnelAddr: addr("10.250.0.1"),
	}); err != nil {
		t.Fatal(err)
	}
	fcSrv, fcCli := faultconn.Pipe(clk)
	if err := srv.AcceptClient("slow", fcSrv); err != nil {
		t.Fatal(err)
	}
	slow, err := client.Connect(client.Config{Name: "slow", RouterID: addr("10.250.0.1"), Clock: clk}, fcCli)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slow.Close() })
	if err := slow.WaitEstablished(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	h1 := connectChaosClient(t, srv, clk, "h1", addr("10.250.0.2"), prefix("184.164.225.0/24"))
	h2 := connectChaosClient(t, srv, clk, "h2", addr("10.250.0.3"), prefix("184.164.226.0/24"))

	// The world arrives in batched runs — the shape the session reader's
	// batched delivery hands the ingest pool: one frame per touched
	// shard for each dispatch below.
	worldPfx := func(i int) netip.Prefix { return prefix(fmt.Sprintf("96.%d.%d.0/24", i/256, i%256)) }
	dispatchWorld := func(lo, hi int, wd []netip.Prefix) {
		var upds []*wire.Update
		if len(wd) > 0 {
			w := &wire.Update{}
			for _, p := range wd {
				w.Withdrawn = append(w.Withdrawn, wire.NLRI{Prefix: p})
			}
			upds = append(upds, w)
		}
		for i := lo; i < hi; i += 128 {
			attrs := fanoutAttrs(3356)
			attrs.MED, attrs.HasMED = uint32(i/128), true
			upd := &wire.Update{Attrs: attrs}
			for j := i; j < hi && j < i+128; j++ {
				upd.Reach = append(upd.Reach, wire.NLRI{Prefix: worldPfx(j)})
			}
			upds = append(upds, upd)
		}
		srv.ingest.dispatch(u, 3356, addr("4.69.0.1"), upds)
	}
	// Shed counts live in each queue until its flusher merges them; a
	// stalled flusher never merges, so sum both places.
	shedTotal := func() uint64 {
		n := srv.Stats().FanoutShed
		for _, c := range srv.clientList() {
			n += c.out.shed.Load()
		}
		return n
	}

	dispatchWorld(0, 2048, nil)
	waitFor(t, "pre-stall convergence", func() bool {
		return slow.RouteCount(1) == 2048 && h1.RouteCount(1) == 2048 && h2.RouteCount(1) == 2048
	})
	if srv.metrics.fanoutFrameShared.Value() == 0 {
		t.Fatal("no shared-frame flushes: the batched path never formed a broadcast frame")
	}
	base := srv.Stats()

	// --- Fault: the laggard's transport stops making progress, then the
	// world keeps broadcasting until the laggard's queue cap sheds a
	// frame mid-broadcast. ---
	fcSrv.Stall()
	next := 2048
	for i := 0; i < 56 && shedTotal() == base.FanoutShed; i++ {
		dispatchWorld(next, next+1024, nil)
		next += 1024
		srv.ingest.barrier() // every frame for this round is enqueued (or shed)
	}
	if shedTotal() == base.FanoutShed {
		t.Fatal("laggard never shed a frame at its queue cap")
	}
	// With the laggard pinned over its cap, one more round carries
	// withdrawals of live prefixes: the frames shed their announcements
	// but the withdrawals must survive as private withdraw-only frames.
	wd := make([]netip.Prefix, 256)
	for i := range wd {
		wd[i] = worldPfx(i)
	}
	dispatchWorld(next, next+1024, wd)
	next += 1024
	total := next - len(wd)
	waitFor(t, "healthy convergence through the stall", func() bool {
		return h1.RouteCount(1) == total && h2.RouteCount(1) == total
	})
	if slow.RouteCount(1) == total {
		t.Fatal("stalled client converged while shedding — stall fault ineffective")
	}
	if !u.Established() {
		t.Fatal("upstream session lost while a client stalled")
	}

	// --- Heal: writes flow again; the overflow flag drives a full
	// resync that rebuilds the laggard. ---
	fcSrv.Unstall()
	waitFor(t, "resync convergence", func() bool {
		return slow.RouteCount(1) == total && srv.Stats().FanoutResyncs > base.FanoutResyncs
	})
	want := tableOf(t, h1.Routes(1))
	got := tableOf(t, slow.Routes(1))
	if !maps.Equal(got, want) {
		t.Fatalf("resynced client diverged from healthy peer: %d vs %d prefixes", len(got), len(want))
	}
	for i := range wd {
		if _, ok := got[wd[i]]; ok {
			t.Fatalf("withdrawn prefix %v survived the shed on the laggard", wd[i])
		}
	}
	// The resync is a replay through the queue, so it is counted like
	// one: the healthy pair's live routes plus at least one whole table
	// for the laggard.
	wantRelayed := uint64(2*(next-2048) + total)
	waitFor(t, "resynced table on the relay counters", func() bool {
		return srv.Stats().RoutesRelayedToClients-base.RoutesRelayedToClients >= wantRelayed
	})

	// --- The laggard dies with replays in flight: one stuck mid-flush on
	// the stalled transport, one waiting in the queue behind it. The
	// queue must still end empty (newCheckedServer's cleanup). ---
	fcSrv.Stall()
	c := clientByID(srv, "slow")
	srv.enqueueReplay(c, u, false)
	// Once the flusher has taken a drain it is parked in the write, and
	// the next replay stays queued behind it.
	waitFor(t, "a replay queued behind the stalled write", func() bool {
		srv.enqueueReplay(c, u, false)
		return c.out.depth() > 0
	})
	fcSrv.Reset()
}
