package peering

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"peering/internal/federation"
	"peering/internal/internet"
	"peering/internal/ixp"
	"peering/internal/portal"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func newReadyTestbed(t *testing.T, cfg Config) *Testbed {
	t.Helper()
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	if err := tb.WaitReady(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestTestbedAssembles(t *testing.T) {
	tb := newReadyTestbed(t, Config{})
	if tb.ASN != DefaultASN || tb.Supernet != DefaultSupernet {
		t.Fatalf("defaults: %+v", tb.Config)
	}
	if len(tb.Server.Upstreams()) < 2 {
		t.Fatalf("upstreams = %d, want RS + transit", len(tb.Server.Upstreams()))
	}
	// The route server upstream carries routes (members' tables).
	waitFor(t, "RS routes", func() bool { return tb.Server.Upstream(1).RoutesIn() > 0 })
	// The transit provider gives a bigger table (full view).
	waitFor(t, "provider full table", func() bool {
		return tb.Server.Upstream(2).RoutesIn() > tb.Server.Upstream(1).RoutesIn()
	})
	// The collector sees a converged Internet.
	waitFor(t, "collector table", func() bool { return tb.Collector.Prefixes() > 10 })
}

func TestExperimentLifecycleEndToEnd(t *testing.T) {
	tb := newReadyTestbed(t, Config{})
	e, err := tb.NewExperiment("ethan", "quickstart", "announce and observe", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Allocation) != 1 || e.Allocation[0].Bits() != 24 {
		t.Fatalf("allocation = %v", e.Allocation)
	}
	cl, err := tb.ConnectClient("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	// Client sees per-upstream routes.
	waitFor(t, "client routes", func() bool {
		return cl.RouteCount(1) > 0 && cl.RouteCount(2) > 0
	})

	// Announce and observe at the collector — a different corner of
	// the Internet, reached through the provider chain.
	p := e.Allocation[0]
	if err := cl.Announce(p, AnnounceOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "route at collector", func() bool {
		_, ok := tb.RouteAtCollector(p)
		return ok
	})
	path, _ := tb.RouteAtCollector(p)
	if !strings.Contains(path, "47065") {
		t.Fatalf("collector path %q lacks testbed ASN", path)
	}

	// Withdraw: the collector loses the route.
	if err := cl.Withdraw(p, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "withdraw at collector", func() bool {
		_, ok := tb.RouteAtCollector(p)
		return !ok
	})
}

func TestTrafficToLiveInternet(t *testing.T) {
	tb := newReadyTestbed(t, Config{})
	_, err := tb.NewExperiment("ethan", "traffic", "exchange traffic", false)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := tb.ConnectClient("traffic")
	if err != nil {
		t.Fatal(err)
	}
	// Target: a CDN member's host address (its prefix is at the IXP).
	var cdnASN uint32
	for _, asn := range tb.Internet.ASNs() {
		if tb.Internet.AS(asn).Kind == internet.KindCDN {
			cdnASN = asn
			break
		}
	}
	dst := tb.InternetHost(cdnASN)
	if !dst.IsValid() {
		t.Fatal("no CDN host address")
	}
	// The CDN must know the route back to the client prefix before
	// replies can flow; announce first.
	alloc := cl.Allocation()[0]
	cl.Announce(alloc, AnnounceOptions{})
	cdn := tb.Live.Container(cdnASN)
	waitFor(t, "CDN return route", func() bool {
		return cdn.BGP.LocRIB().Best(alloc) != nil && cdn.DP.LookupRoute(alloc.Addr()) != nil
	})

	got := make(chan *Packet, 4)
	cl.OnPacket(func(p *Packet) { got <- p.Clone() })
	src := alloc.Addr().Next()
	pkt := &Packet{Src: src, Dst: dst, TTL: 64, Proto: 1, ICMP: 8, ID: 42, Seq: 7}
	if err := cl.SendPacket(pkt); err != nil {
		t.Fatal(err)
	}
	select {
	case reply := <-got:
		if reply.Src != dst || reply.ICMP != 1 {
			t.Fatalf("reply = %+v", reply)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no echo reply from the live Internet")
	}
}

func TestScheduledAnnouncementViaPortal(t *testing.T) {
	tb := newReadyTestbed(t, Config{})
	e, err := tb.NewExperiment("italo", "sched", "scheduled announcements", false)
	if err != nil {
		t.Fatal(err)
	}
	// Schedule for "now": the portal connects a hidden client and
	// executes — no client software router needed (§3).
	if _, err := tb.Portal.Schedule(portal.Announcement{
		Experiment: "sched",
		Prefix:     e.Allocation[0],
		At:         time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "scheduled route at collector", func() bool {
		_, ok := tb.RouteAtCollector(e.Allocation[0])
		return ok
	})
}

func TestBIRDModeTestbed(t *testing.T) {
	tb := newReadyTestbed(t, Config{Mode: ModeBIRD})
	_, err := tb.NewExperiment("u", "bird", "bird mode", false)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := tb.ConnectClient("bird")
	if err != nil {
		t.Fatal(err)
	}
	if cl.SessionCount() != 1 {
		t.Fatalf("BIRD sessions = %d, want 1", cl.SessionCount())
	}
	waitFor(t, "routes over single session", func() bool {
		return cl.RouteCount(1) > 0 && cl.RouteCount(2) > 0
	})
}

func TestTwoSimultaneousExperiments(t *testing.T) {
	tb := newReadyTestbed(t, Config{})
	e1, err := tb.NewExperiment("a", "expA", "t", false)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := tb.NewExperiment("b", "expB", "t", false)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Allocation[0] == e2.Allocation[0] {
		t.Fatal("experiments share a prefix")
	}
	c1, err := tb.ConnectClient("expA")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := tb.ConnectClient("expB")
	if err != nil {
		t.Fatal(err)
	}
	c1.Announce(e1.Allocation[0], AnnounceOptions{})
	c2.Announce(e2.Allocation[0], AnnounceOptions{})
	waitFor(t, "both at collector", func() bool {
		_, ok1 := tb.RouteAtCollector(e1.Allocation[0])
		_, ok2 := tb.RouteAtCollector(e2.Allocation[0])
		return ok1 && ok2
	})
	// Independence: A cannot withdraw B's prefix (the server filters by
	// allocation).
	c1.Withdraw(e2.Allocation[0], nil)
	time.Sleep(100 * time.Millisecond)
	if _, ok := tb.RouteAtCollector(e2.Allocation[0]); !ok {
		t.Fatal("experiment A withdrew B's prefix")
	}
}

// ----------------------------------------------------------------------
// Table 1

func TestTable1PEERINGRowComplete(t *testing.T) {
	var pr *System
	for _, s := range KnownSystems() {
		if s.Abbrev == "PR" {
			cp := s
			pr = &cp
		}
	}
	if pr == nil {
		t.Fatal("no PEERING row")
	}
	for _, c := range AllCapabilities() {
		if !pr.Covers(c) {
			t.Errorf("PEERING lacks %v", c)
		}
	}
}

func TestTable1NoTwoSystemsCombine(t *testing.T) {
	if !NoTwoSystemsCombine() {
		t.Fatal("two non-PEERING systems cover all goals — Table 1 claim violated")
	}
}

func TestTable1MatchesPaperSpotChecks(t *testing.T) {
	byAbbrev := map[string]System{}
	for _, s := range KnownSystems() {
		byAbbrev[s.Abbrev] = s
	}
	// Spot checks straight from the printed table.
	checks := []struct {
		sys  string
		cap  Capability
		want Support
	}{
		{"PL", CapInterdomain, No},
		{"PL", CapRichConn, Yes},
		{"TP", CapInterdomain, Yes},
		{"TP", CapTraffic, Limited},
		{"BC", CapInterdomain, Limited},
		{"RC", CapRichConn, Yes},
		{"MN", CapIntradomain, Yes},
		{"EM", CapRealServices, No},
		{"VN", CapIntradomain, Yes},
	}
	for _, c := range checks {
		if got := byAbbrev[c.sys].Caps[c.cap]; got != c.want {
			t.Errorf("%s/%v = %v, want %v", c.sys, c.cap, got, c.want)
		}
	}
	out := Table1()
	if !strings.Contains(out, "PR") || !strings.Contains(out, "Interdomain") {
		t.Fatalf("Table1 render:\n%s", out)
	}
}

// ----------------------------------------------------------------------
// Experiment runners (small-scale smoke; full scale runs in benches)

func smallEvalSpec() internet.Spec {
	return internet.Spec{Seed: 42, ASes: 2000, Tier1s: 12, Transits: 250, CDNs: 16, Contents: 40, Prefixes: 30000}
}

func TestRunAMSIXExperimentShape(t *testing.T) {
	rep := RunAMSIXExperiment(smallEvalSpec())
	if rep.Members != 669 || rep.OnRouteServer != 554 {
		t.Fatalf("membership: %+v", rep)
	}
	if rep.Open != 48 || rep.Closed != 12 || rep.CaseByCase != 40 || rep.Unlisted != 15 {
		t.Fatalf("policy split: %+v", rep)
	}
	if rep.RequestsSent != 115 {
		t.Fatalf("requests = %d", rep.RequestsSent)
	}
	if acc := rep.Accepted + rep.AcceptedAfterQuestions; acc < 40 {
		t.Fatalf("accepted = %d of 48 open, want vast majority", acc)
	}
	if rep.Countries < 40 {
		t.Fatalf("countries = %d", rep.Countries)
	}
	if rep.PeerFraction <= 0.05 || rep.PeerFraction >= 0.8 {
		t.Fatalf("peer fraction = %.2f", rep.PeerFraction)
	}
	if rep.PeersUnder100 == 0 || rep.MaxPeerRoutes < 100 {
		t.Fatalf("route distribution: %+v", rep)
	}
	if !strings.Contains(rep.String(), "AMS-IX") {
		t.Fatal("report render broken")
	}
}

func TestRunDestinationCoverageShape(t *testing.T) {
	g := internet.Generate(smallEvalSpec())
	x := ixp.BuildAMSIX(g, ixp.DefaultAMSIXSpec())
	pr := x.Join(7, true)
	rep := RunDestinationCoverage(g, pr, internet.DefaultContentSpec())
	if rep.Sites != 500 || rep.FQDNs > 4182 || rep.IPs != 2757 {
		t.Fatalf("content counts: %+v", rep)
	}
	if rep.SitesOnPeerRoutes == 0 || rep.SitesOnPeerRoutes == rep.Sites {
		t.Fatalf("sites on peers = %d — should be partial coverage", rep.SitesOnPeerRoutes)
	}
	if rep.IPsOnPeerRoutes == 0 || rep.IPsOnPeerRoutes == rep.IPs {
		t.Fatalf("IPs on peers = %d — should be partial coverage", rep.IPsOnPeerRoutes)
	}
	if !strings.Contains(rep.String(), "destination coverage") {
		t.Fatal("report render broken")
	}
}

func TestMeasureTableMemorySmall(t *testing.T) {
	pt := MeasureTableMemory(2, 500)
	if pt.Routes != 1000 {
		t.Fatalf("routes = %d, want 1000", pt.Routes)
	}
	if pt.Bytes == 0 {
		t.Fatal("no memory measured")
	}
	// Memory grows with table size.
	pt2 := MeasureTableMemory(4, 500)
	if pt2.Routes != 2000 {
		t.Fatalf("routes = %d, want 2000", pt2.Routes)
	}
}

func TestRunHEEmulation(t *testing.T) {
	rep, err := RunHEEmulation()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PoPs != 24 {
		t.Fatalf("PoPs = %d", rep.PoPs)
	}
	if !rep.Converged {
		t.Fatal("HE emulation did not converge")
	}
	if rep.RoutesAtAmsterdam != 24 {
		t.Fatalf("Amsterdam routes = %d", rep.RoutesAtAmsterdam)
	}
	if !rep.PingAmsterdamToTokyo {
		t.Fatal("Amsterdam→Tokyo ping failed")
	}
	// §4.2: fits a commodity 8GB host — our emulation is far smaller.
	if rep.HeapBytes > 1<<30 {
		t.Fatalf("heap = %d bytes", rep.HeapBytes)
	}
}

func TestRouteServerAblation(t *testing.T) {
	ab := RunRouteServerAblation(smallEvalSpec())
	if ab.WithRS.Peers <= ab.Bilateral.Peers {
		t.Fatalf("RS should multiply peers: %+v", ab)
	}
	if ab.WithRS.ReachablePrefix <= ab.Bilateral.ReachablePrefix {
		t.Fatalf("RS should multiply reach: %+v", ab)
	}
}

func TestBuildLiveValleyFree(t *testing.T) {
	// In the live mini-Internet, a stub's prefix must be visible at a
	// tier-1 (providers give transit), and convergence completes.
	g := internet.Generate(liveSpec())
	li, err := BuildLive(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !li.WaitConverged(10, 30*time.Second) {
		t.Fatal("live internet did not converge")
	}
	// Find a stub and a tier-1.
	var stub, tier1 uint32
	for _, asn := range g.ASNs() {
		switch g.AS(asn).Kind {
		case internet.KindStub:
			if stub == 0 {
				stub = asn
			}
		case internet.KindTier1:
			if tier1 == 0 {
				tier1 = asn
			}
		}
	}
	stubPfx := g.AS(stub).Prefixes[0]
	waitFor(t, "stub prefix at tier1", func() bool {
		return li.Container(tier1).BGP.LocRIB().Best(stubPfx) != nil
	})
	// And the path is valley-free per the graph relationships.
	rt := li.Container(tier1).BGP.LocRIB().Best(stubPfx)
	path := rt.Attrs.ASList()
	if len(path) == 0 || path[len(path)-1] != stub {
		t.Fatalf("path = %v", path)
	}
}

func TestInternetHostAnswersPing(t *testing.T) {
	tb := newReadyTestbed(t, Config{})
	var someASN uint32
	for asn, a := range tb.Live.HostAddrOf {
		_ = a
		someASN = asn
		break
	}
	host := tb.InternetHost(someASN)
	if !host.IsValid() {
		t.Fatal("no host")
	}
	c := tb.Live.Container(someASN)
	// The container's own dataplane answers for its host address.
	pkt := &Packet{Src: netip.MustParseAddr("10.20.0.99"), Dst: host, TTL: 4, Proto: 1, ICMP: 8}
	before := c.DP.Stats().DeliveredLocal
	c.DP.Receive(pkt, nil)
	if c.DP.Stats().DeliveredLocal != before+1 {
		t.Fatal("host address not locally delivered")
	}
}

func TestFederatedTestbed(t *testing.T) {
	tb := newReadyTestbed(t, Config{Federate: true})
	if tb.Federation == nil {
		t.Fatal("Federate: true but no federation mesh")
	}
	for _, name := range []string{"phoenix01", "seattle01"} {
		if tb.FederatedServers[name] == nil {
			t.Fatalf("no federated server %s", name)
		}
	}

	// amsterdam's server carries a mirror of each remote site's transit
	// upstream, and they fill with that site's provider's routes.
	mirrors := map[string]uint32{}
	for _, u := range tb.Server.Upstreams() {
		if via := u.Config().FedVia; via != "" {
			mirrors[via] = u.Config().ID
			uu := u
			waitFor(t, "mirror routes via "+via, func() bool { return uu.RoutesIn() > 0 })
		}
	}
	if len(mirrors) != 2 {
		t.Fatalf("mirrored upstreams at amsterdam01 = %v, want phoenix01 and seattle01", mirrors)
	}

	// A client session at amsterdam hears the peers at every site.
	if _, err := tb.NewExperiment("frank", "fed", "federation smoke", false); err != nil {
		t.Fatal(err)
	}
	cl, err := tb.ConnectClient("fed")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "client routes from all three sites", func() bool {
		return cl.RouteCount(2) > 0 &&
			cl.RouteCount(mirrors["phoenix01"]) > 0 &&
			cl.RouteCount(mirrors["seattle01"]) > 0
	})

	// GET /federation serves the mesh snapshot.
	srv := httptest.NewServer(tb.Portal.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/federation")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /federation: %s", resp.Status)
	}
	var st federation.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 3 || len(st.Links) != 3 {
		t.Fatalf("status: %d members, %d links, want 3 and 3", len(st.Members), len(st.Links))
	}
	kinds := map[string]string{}
	for _, m := range st.Members {
		kinds[m.Name] = m.Attachment
	}
	if kinds["amsterdam01"] != "physical" || kinds["seattle01"] != "remote" {
		t.Fatalf("attachment kinds: %v", kinds)
	}
}
