package federation

// Equivalence is the contract federation must honor: a client attached
// to ONE mux sees the routes of peers at EVERY mux, attribute for
// attribute what a client attached to a single mux holding all those
// peers would see — and its announcements leave a remote exchange
// exactly as if it had been attached there. These tests pin both
// directions against single-mux control rigs, plus the metro rule:
// same-metro routes provably never cross the backhaul.

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"peering/internal/bgp"
	"peering/internal/bufconn"
	"peering/internal/client"
	"peering/internal/clock"
	"peering/internal/dampen"
	"peering/internal/ixp"
	"peering/internal/muxproto"
	"peering/internal/rib"
	"peering/internal/router"
	"peering/internal/server"
	"peering/internal/telemetry"
	"peering/internal/wire"
)

const testbedASN = 47065

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// waitFor polls cond in real time; the equivalence rigs run on the
// system clock (messages free-run over in-memory pipes).
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func relaxedDampening() dampen.Config {
	cfg := dampen.DefaultConfig()
	cfg.SuppressThreshold = 6000
	cfg.ReuseThreshold = 3000
	return cfg
}

// newTestServer builds one mux. Each member gets its own exchange LAN
// (80.249.<200+idx>.0/24) so peering addresses never collide across
// rigs that share router configs.
func newTestServer(t *testing.T, site string, idx int, clk clock.Clock) *server.Server {
	t.Helper()
	srv := server.New(server.Config{
		Site:      site,
		ASN:       testbedASN,
		RouterID:  addr(fmt.Sprintf("184.164.224.%d", idx+1)),
		Mode:      muxproto.ModeQuagga,
		Clock:     clk,
		Dampening: relaxedDampening(),
		Reconnect: bgp.Backoff{Initial: time.Second, Max: 8 * time.Second, Factor: 2},
	})
	t.Cleanup(srv.Close)
	return srv
}

// peerSpec describes one real upstream peer to wire to a mux.
type peerSpec struct {
	uid       uint32
	asn       uint32
	peerAddr  netip.Addr // the router's address on the exchange LAN
	localAddr netip.Addr // the mux's address on the exchange LAN
	routerID  netip.Addr
}

func spec(uid uint32, asn uint32, lan int) peerSpec {
	return peerSpec{
		uid: uid, asn: asn,
		peerAddr:  addr(fmt.Sprintf("80.249.%d.%d", 200+lan, 9+uid)),
		localAddr: addr(fmt.Sprintf("80.249.%d.1", 200+lan)),
		routerID:  addr(fmt.Sprintf("4.69.%d.%d", lan, uid)),
	}
}

// attachPeer registers the upstream at srv and wires a real router to
// it over an in-memory pipe.
func attachPeer(t *testing.T, srv *server.Server, sp peerSpec, clk clock.Clock) *router.Router {
	t.Helper()
	up := router.New(router.Config{AS: sp.asn, RouterID: sp.routerID, Clock: clk})
	u, err := srv.AddUpstream(server.UpstreamConfig{
		ID: sp.uid, Name: fmt.Sprintf("up%d-as%d", sp.uid, sp.asn),
		ASN: sp.asn, PeerAddr: sp.peerAddr, LocalAddr: sp.localAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := up.AddPeer(router.PeerConfig{
		Addr: sp.localAddr, LocalAddr: sp.peerAddr, AS: testbedASN,
	})
	ca, cb := bufconn.Pipe()
	srv.AttachUpstream(u, ca)
	up.Attach(p, cb)
	return up
}

// announceFrom originates a deterministic world of 18 prefixes with
// diverse attributes; seed keeps different peers' worlds disjoint.
func announceFrom(up *router.Router, seed int) int {
	specs := []router.AnnounceSpec{
		{},
		{Prepend: 2},
		{MED: 50, MEDSet: true},
		{Communities: []wire.Community{0x2FB90001, 0x2FB90002}},
		{Poison: []uint32{174}},
		{Prepend: 1, MED: 10, MEDSet: true, Communities: []wire.Community{0x2FB9FFFF}},
	}
	n := 0
	for i, s := range specs {
		for j := 0; j < 3; j++ {
			up.Announce(prefix(fmt.Sprintf("%d.%d.%d.0/24", 96+seed, i, j)), s)
			n++
		}
	}
	return n
}

// connectTestClient registers and connects one researcher client.
func connectTestClient(t *testing.T, srv *server.Server, clk clock.Clock, id string, tun netip.Addr, alloc ...netip.Prefix) *client.Client {
	t.Helper()
	if err := srv.RegisterClient(server.ClientAccount{ID: id, Allocation: alloc, TunnelAddr: tun}); err != nil {
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
	t.Cleanup(func() { cl.Close() })
	return cl
}

// clientTable flattens a client's per-upstream view into prefix →
// marshaled attrs, the strictest comparison the wire format allows.
func clientTable(t testing.TB, cl *client.Client, uid uint32) map[netip.Prefix]string {
	t.Helper()
	out := make(map[netip.Prefix]string)
	for _, r := range cl.Routes(uid) {
		b, err := wire.MarshalAttrs(r.Attrs, wire.DefaultOptions)
		if err != nil {
			t.Fatalf("marshal attrs for %v: %v", r.Prefix, err)
		}
		out[r.Prefix] = string(b)
	}
	return out
}

// routerInTable captures what a real upstream router heard from the
// testbed on a given peering.
func routerInTable(t testing.TB, up *router.Router, peerAddr netip.Addr) map[netip.Prefix]string {
	t.Helper()
	p := up.Peer(peerAddr)
	if p == nil {
		t.Fatalf("router has no peer %v", peerAddr)
	}
	out := make(map[netip.Prefix]string)
	p.WalkIn(func(r rib.Route) bool {
		b, err := wire.MarshalAttrs(r.Attrs, wire.DefaultOptions)
		if err != nil {
			t.Fatalf("marshal attrs for %v: %v", r.Prefix, err)
		}
		out[r.Prefix] = string(b)
		return true
	})
	return out
}

func diffTables(t testing.TB, what string, got, want map[netip.Prefix]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d routes, want %d", what, len(got), len(want))
	}
	for p, w := range want {
		g, ok := got[p]
		if !ok {
			t.Errorf("%s: missing %v", what, p)
		} else if g != w {
			t.Errorf("%s: %v attrs differ\n got  %x\n want %x", what, p, g, w)
		}
	}
	for p := range got {
		if _, ok := want[p]; !ok {
			t.Errorf("%s: unexpected %v", what, p)
		}
	}
}

func physicalSite(name string) ixp.Site { return ixp.Site{Name: name, Kind: ixp.SitePhysical} }

// newTestMesh federates the given servers with distinct metros.
func newTestMesh(t *testing.T, clk clock.Clock, reg *telemetry.Registry, members ...Member) *Mesh {
	t.Helper()
	m, err := New(Config{
		Members:    members,
		Allocation: []netip.Prefix{prefix("184.164.224.0/19")},
		Clock:      clk,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// TestFederationEquivalence is the core acceptance test: a client at
// amsterdam01 converges on the routes of peers at phoenix01 AND
// seattle01 (two other muxes, one of them remote peering), attribute
// for attribute identical to a single-mux control where the same peers
// attach directly.
func TestFederationEquivalence(t *testing.T) {
	ams := newTestServer(t, "amsterdam01", 0, nil)
	phx := newTestServer(t, "phoenix01", 1, nil)
	sea := newTestServer(t, "seattle01", 2, nil)

	amsSpec, phxSpec, seaSpec := spec(1, 3356, 0), spec(1, 1239, 1), spec(1, 6939, 2)
	amsUp := attachPeer(t, ams, amsSpec, nil)
	phxUp := attachPeer(t, phx, phxSpec, nil)
	seaUp := attachPeer(t, sea, seaSpec, nil)
	nAms := announceFrom(amsUp, 0)
	nPhx := announceFrom(phxUp, 1)
	nSea := announceFrom(seaUp, 2)

	newTestMesh(t, nil, nil,
		Member{Server: ams, RouterID: addr("184.164.224.1"), Site: physicalSite("amsterdam01")},
		Member{Server: phx, RouterID: addr("184.164.224.2"), Site: physicalSite("phoenix01")},
		Member{Server: sea, RouterID: addr("184.164.224.3"), Site: ixp.Site{
			Name: "seattle01", Kind: ixp.SiteRemote, Provider: "hibernia",
		}},
	)

	// Control: one mux at which all three peers attach directly. The
	// routers are configured identically to the federated ones, so
	// their exports carry identical attributes.
	ctl := newTestServer(t, "control01", 3, nil)
	ctlAms := attachPeer(t, ctl, amsSpec, nil)
	ctlPhx := attachPeer(t, ctl, peerSpec{
		uid: 2, asn: phxSpec.asn, peerAddr: phxSpec.peerAddr,
		localAddr: phxSpec.localAddr, routerID: phxSpec.routerID,
	}, nil)
	ctlSea := attachPeer(t, ctl, peerSpec{
		uid: 3, asn: seaSpec.asn, peerAddr: seaSpec.peerAddr,
		localAddr: seaSpec.localAddr, routerID: seaSpec.routerID,
	}, nil)
	announceFrom(ctlAms, 0)
	announceFrom(ctlPhx, 1)
	announceFrom(ctlSea, 2)

	cl := connectTestClient(t, ams, nil, "alice", addr("10.250.0.1"), prefix("184.164.224.0/24"))
	ctlCl := connectTestClient(t, ctl, nil, "alice", addr("10.250.0.1"), prefix("184.164.224.0/24"))

	phxID := fedIDBase(1) + 1
	seaID := fedIDBase(2) + 1
	waitFor(t, "federated client convergence", func() bool {
		return cl.RouteCount(1) == nAms && cl.RouteCount(phxID) == nPhx && cl.RouteCount(seaID) == nSea
	})
	waitFor(t, "control client convergence", func() bool {
		return ctlCl.RouteCount(1) == nAms && ctlCl.RouteCount(2) == nPhx && ctlCl.RouteCount(3) == nSea
	})

	diffTables(t, "local peer", clientTable(t, cl, 1), clientTable(t, ctlCl, 1))
	diffTables(t, "phoenix peer over backhaul", clientTable(t, cl, phxID), clientTable(t, ctlCl, 2))
	diffTables(t, "seattle peer over backhaul", clientTable(t, cl, seaID), clientTable(t, ctlCl, 3))
}

// TestImportLeavesSharedSetUntouched: a mirror's session reader hands
// the import hook interned sets, shared by every route and frame that
// carries them, so stripping a foreign metro tag must not write through
// to the shared set. The hook swaps in a stripped clone, the original
// keeps its tag, and the mux stores and relays the stripped set.
func TestImportLeavesSharedSetUntouched(t *testing.T) {
	ams := newTestServer(t, "amsterdam01", 0, nil)
	phx := newTestServer(t, "phoenix01", 1, nil)
	n := announceFrom(attachPeer(t, phx, spec(1, 1239, 1), nil), 1)
	mesh := newTestMesh(t, nil, nil,
		Member{Server: ams, RouterID: addr("184.164.224.1"), Site: physicalSite("amsterdam01")},
		Member{Server: phx, RouterID: addr("184.164.224.2"), Site: physicalSite("phoenix01")},
	)
	cl := connectTestClient(t, ams, nil, "alice", addr("10.250.0.1"), prefix("184.164.224.0/24"))
	phxID := fedIDBase(1) + 1
	waitFor(t, "amsterdam hears phoenix's peer", func() bool { return cl.RouteCount(phxID) == n })
	amsTag, _ := mesh.MetroCommunity("amsterdam01")
	phxTag, _ := mesh.MetroCommunity("phoenix01")
	for _, r := range cl.Routes(phxID) {
		if r.Attrs.HasCommunity(phxTag) {
			t.Fatalf("%v reached the client with phoenix's metro tag", r.Prefix)
		}
	}

	fu := mesh.memberByName("amsterdam01").feds[0]
	tab := wire.NewInternTable()
	set := func(cs ...wire.Community) *wire.Attrs {
		slices.Sort(cs)
		return tab.Intern(&wire.Attrs{
			ASPath:      []wire.Segment{{Type: wire.SegSequence, ASNs: []uint32{1239}}},
			NextHop:     addr("80.249.201.10"),
			Communities: cs,
		})
	}
	shared := set(amsTag, phxTag, 0x2FB90001)
	upd := &wire.Update{Attrs: shared, Reach: []wire.NLRI{{Prefix: prefix("97.0.0.0/24")}}}
	fu.importUpdate(upd)
	if !shared.HasCommunity(phxTag) || len(shared.Communities) != 3 || tab.Lookup(shared.Clone()) != shared {
		t.Fatalf("the shared set was written through: %v", shared.Communities)
	}
	if upd.Attrs == shared || upd.Attrs.HasCommunity(phxTag) || !upd.Attrs.HasCommunity(amsTag) {
		t.Fatalf("imported set %v: want a clone without phoenix's tag, with amsterdam's", upd.Attrs.Communities)
	}
	// Nothing to strip, nothing cloned.
	own := set(amsTag, 0x2FB90001)
	upd = &wire.Update{Attrs: own, Reach: upd.Reach}
	if fu.importUpdate(upd); upd.Attrs != own {
		t.Fatal("a set with no foreign tag was cloned")
	}
}

// TestFederationMetroSuppression pins the metro-locality rule: two
// muxes in the same metro never exchange routes over the backhaul,
// while a third metro still hears everything — asserted on the client
// view, the mirrored tables, AND the peering_federation_* counters.
func TestFederationMetroSuppression(t *testing.T) {
	ams1 := newTestServer(t, "amsterdam01", 0, nil)
	ams2 := newTestServer(t, "amsterdam02", 1, nil)
	phx := newTestServer(t, "phoenix01", 2, nil)

	up2Spec := spec(1, 3356, 1)
	up2 := attachPeer(t, ams2, up2Spec, nil)
	n := announceFrom(up2, 1)

	reg := telemetry.NewRegistry()
	mesh := newTestMesh(t, nil, reg,
		Member{Server: ams1, Metro: "amsterdam", RouterID: addr("184.164.224.1"), Site: physicalSite("amsterdam01")},
		Member{Server: ams2, Metro: "amsterdam", RouterID: addr("184.164.224.2"), Site: physicalSite("amsterdam02")},
		Member{Server: phx, Metro: "phoenix", RouterID: addr("184.164.224.3"), Site: physicalSite("phoenix01")},
	)

	mirrorID := fedIDBase(1) + 1 // amsterdam02's peer mirrored elsewhere
	phxCl := connectTestClient(t, phx, nil, "bob", addr("10.250.0.1"), prefix("184.164.225.0/24"))
	waitFor(t, "phoenix hears amsterdam02's peer", func() bool {
		return phxCl.RouteCount(mirrorID) == n
	})

	// The cross-metro direction converged; the same-metro direction
	// must have been suppressed at the source, not merely be slow. The
	// two exports run on different sessions: phoenix having converged
	// says nothing of when amsterdam01's export was counted, so wait.
	met := mesh.metrics
	waitFor(t, "suppressed{amsterdam02->amsterdam01} > 0", func() bool {
		return met.suppressed.With("amsterdam02", "amsterdam01").Value() > 0
	})
	if got := met.exported.With("amsterdam02", "amsterdam01").Value(); got != 0 {
		t.Errorf("exported{amsterdam02->amsterdam01} = %d, want 0 (same metro)", got)
	}
	if got := met.exported.With("amsterdam02", "phoenix01").Value(); got < uint64(n) {
		t.Errorf("exported{amsterdam02->phoenix01} = %d, want >= %d", got, n)
	}
	ams1M := mesh.memberByName("amsterdam01")
	for _, fu := range ams1M.feds {
		if fu.via.name == "amsterdam02" && fu.u.RoutesIn() != 0 {
			t.Errorf("amsterdam01 mirror of amsterdam02 peer holds %d routes, want 0", fu.u.RoutesIn())
		}
	}
	if _, ok := mesh.MetroCommunity("amsterdam"); !ok {
		t.Error("no metro community assigned for amsterdam")
	}
}

// TestFederationAnnounce pins the export direction: a client attached
// at amsterdam01 announces through phoenix01's peer via the mirrored
// upstream, and the real router at phoenix hears attributes identical
// to a control where the client attaches at the peer's own mux.
func TestFederationAnnounce(t *testing.T) {
	ams := newTestServer(t, "amsterdam01", 0, nil)
	phx := newTestServer(t, "phoenix01", 1, nil)
	phxSpec := spec(1, 1239, 1)
	phxUp := attachPeer(t, phx, phxSpec, nil)

	reg := telemetry.NewRegistry()
	mesh := newTestMesh(t, nil, reg,
		Member{Server: ams, RouterID: addr("184.164.224.1"), Site: physicalSite("amsterdam01")},
		Member{Server: phx, RouterID: addr("184.164.224.2"), Site: physicalSite("phoenix01")},
	)

	ctl := newTestServer(t, "control01", 2, nil)
	ctlUp := attachPeer(t, ctl, phxSpec, nil)

	cl := connectTestClient(t, ams, nil, "alice", addr("10.250.0.1"), prefix("184.164.224.0/24"))
	ctlCl := connectTestClient(t, ctl, nil, "alice", addr("10.250.0.1"), prefix("184.164.224.0/24"))
	if err := cl.WaitEstablished(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ctlCl.WaitEstablished(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	mirrorID := fedIDBase(1) + 1
	opts := client.AnnounceOptions{
		Prepend:     1,
		Communities: []wire.Community{0x2FB90064},
		OriginASNs:  []uint32{65001},
	}
	a := opts
	a.Upstreams = []uint32{mirrorID}
	if err := cl.Announce(prefix("184.164.224.0/24"), a); err != nil {
		t.Fatal(err)
	}
	c := opts
	c.Upstreams = []uint32{1}
	if err := ctlCl.Announce(prefix("184.164.224.0/24"), c); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "announcement reaches phoenix's router over the backhaul", func() bool {
		return len(routerInTable(t, phxUp, phxSpec.localAddr)) == 1
	})
	waitFor(t, "control announcement reaches the router", func() bool {
		return len(routerInTable(t, ctlUp, phxSpec.localAddr)) == 1
	})
	diffTables(t, "announcement at the peer router",
		routerInTable(t, phxUp, phxSpec.localAddr),
		routerInTable(t, ctlUp, phxSpec.localAddr))

	if got := mesh.metrics.announced.With("amsterdam01", "phoenix01").Value(); got == 0 {
		t.Error("announced{amsterdam01->phoenix01} = 0, want > 0")
	}

	// Withdraw crosses the backhaul the same way.
	if err := cl.Withdraw(prefix("184.164.224.0/24"), []uint32{mirrorID}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "withdrawal reaches phoenix's router", func() bool {
		return len(routerInTable(t, phxUp, phxSpec.localAddr)) == 0
	})
}

// TestFederationStatus sanity-checks the portal snapshot.
func TestFederationStatus(t *testing.T) {
	ams := newTestServer(t, "amsterdam01", 0, nil)
	sea := newTestServer(t, "seattle01", 1, nil)
	attachPeer(t, ams, spec(1, 3356, 0), nil)

	mesh := newTestMesh(t, nil, nil,
		Member{Server: ams, RouterID: addr("184.164.224.1"), Site: physicalSite("amsterdam01")},
		Member{Server: sea, RouterID: addr("184.164.224.2"), Site: ixp.Site{
			Name: "seattle01", Kind: ixp.SiteRemote, Provider: "hibernia",
		}},
	)

	st := mesh.Status()
	if len(st.Members) != 2 || len(st.Links) != 1 {
		t.Fatalf("status: %d members, %d links; want 2, 1", len(st.Members), len(st.Links))
	}
	if st.Links[0].Kind != "remote" {
		t.Errorf("link kind = %q, want remote (seattle01 is a remote site)", st.Links[0].Kind)
	}
	if st.Links[0].RTTMillis <= 0 {
		t.Errorf("link RTT = %v, want > 0", st.Links[0].RTTMillis)
	}
	var amsSt *MemberStatus
	for i := range st.Members {
		if st.Members[i].Name == "amsterdam01" {
			amsSt = &st.Members[i]
		}
	}
	if amsSt == nil {
		t.Fatal("no amsterdam01 in status")
	}
	if amsSt.Attachment != "physical" {
		t.Errorf("amsterdam01 attachment = %q, want physical", amsSt.Attachment)
	}
	if len(amsSt.LocalUpstreams) != 1 {
		t.Errorf("amsterdam01 local upstreams = %d, want 1", len(amsSt.LocalUpstreams))
	}
	want := fmt.Sprintf("%d:%d", testbedASN, 100)
	if amsSt.MetroCommunity != want {
		t.Errorf("amsterdam01 metro community = %q, want %q", amsSt.MetroCommunity, want)
	}
	waitFor(t, "backhaul carries bytes", func() bool {
		s := mesh.Status()
		return s.Links[0].BytesFromA > 0 && s.Links[0].BytesFromB > 0
	})
}

// TestBackhaulReplayIsFewWrites: after a partition heals, the serving
// agent replays a 1 000-route table over 100 attribute sets to the
// redialed mirror as a handful of transport writes — its runs packed
// into shared writes, not one write per UPDATE — and the mirror ends on
// the whole table.
func TestBackhaulReplayIsFewWrites(t *testing.T) {
	const n = 1000
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	ams := chaosTestServer(t, "amsterdam01", 0, clk)
	phx := chaosTestServer(t, "phoenix01", 1, clk)
	phxUp := attachPeer(t, phx, spec(1, 1239, 1), clk)
	for i := 0; i < n; i++ {
		phxUp.Announce(prefix(fmt.Sprintf("60.%d.%d.0/24", i/256, i%256)), router.AnnounceSpec{MED: uint32(i % 100), MEDSet: true})
	}
	waitForV(t, clk, "phoenix holds its table", 100*time.Millisecond, func() bool {
		return phx.Upstream(1).RoutesIn() == n
	})
	mesh := newTestMesh(t, clk, telemetry.NewRegistry(),
		Member{Server: ams, RouterID: addr("184.164.224.1"), Site: physicalSite("amsterdam01")},
		Member{Server: phx, RouterID: addr("184.164.224.2"), Site: physicalSite("phoenix01")},
	)
	fu := mirrorOf(t, mesh, "amsterdam01", "phoenix01")
	conv := mesh.metrics.convergence.With("amsterdam01", "phoenix01")
	waitForV(t, clk, "the first sync", 100*time.Millisecond, func() bool {
		return fu.u.RoutesIn() == n && conv.Count() == 1
	})

	if err := mesh.PartitionLink("amsterdam01", "phoenix01"); err != nil {
		t.Fatal(err)
	}
	waitForV(t, clk, "backhaul session death by hold timer", time.Second, func() bool {
		return !fu.u.Established()
	})
	phxEnd := mesh.links[0].cb // amsterdam01 sorts first: phoenix01 is b
	base := phxEnd.Stats().Writes
	if err := mesh.HealLink("amsterdam01", "phoenix01"); err != nil {
		t.Fatal(err)
	}
	waitForV(t, clk, "the replay's end-of-RIB", 100*time.Millisecond, func() bool {
		return fu.u.Established() && conv.Count() == 2
	})
	if got := fu.u.RoutesIn(); got != n {
		t.Fatalf("mirror holds %d routes after the replay, want %d", got, n)
	}
	// The handshake, the replay, End-of-RIB and what else the link
	// carried while the clock stepped: well under one write per set.
	writes := phxEnd.Stats().Writes - base
	t.Logf("%d writes from the heal to the replay's end", writes)
	if writes > 10 {
		t.Fatalf("phoenix01 wrote %d times from the heal to the replay's end, want a handful", writes)
	}
}
