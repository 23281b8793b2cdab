package peering

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"time"

	"peering/internal/bufconn"
	"peering/internal/internet"
	"peering/internal/ixp"
	"peering/internal/mininext"
	"peering/internal/policy"
	"peering/internal/router"
	"peering/internal/topozoo"
	"peering/internal/wire"
)

// FullScaleSpec is the synthetic Internet used for the paper-scale
// §4.1 evaluation: calibrated so that AMS-IX's 669 members, the
// 48/12/40/15 policy split, and the peer-reachability shape reproduce.
func FullScaleSpec() internet.Spec {
	return internet.Spec{
		Seed: 42, ASes: 8000, Tier1s: 12, Transits: 700, CDNs: 16, Contents: 40,
		Prefixes: 525000,
	}
}

// ----------------------------------------------------------------------
// §4.1 — Rich interdomain peering

// AMSIXReport reproduces every number §4.1 reports.
type AMSIXReport struct {
	// Membership (paper: 669 members, 554 on route servers; of the
	// 115 others, 48 open / 12 closed / 40 case-by-case / 15 unlisted).
	Members, OnRouteServer int
	Open, Closed           int
	CaseByCase, Unlisted   int
	// Bilateral campaign (paper: vast majority of open members
	// accepted, one asked questions, a handful never responded).
	RequestsSent, Accepted int
	AcceptedAfterQuestions int
	NoResponse, Declined   int
	// Who do we peer with (paper: peers in 59 countries; ≥13 of the
	// top 50 and 27 of the top 100 ASes by customer cone).
	TotalPeers, Countries   int
	Top50Peers, Top100Peers int
	// Which destinations (paper: 131K prefixes ≈ ¼ of the Internet).
	PeerPrefixes, TotalPrefixes int
	PeerFraction                float64
	// Route-count distribution (paper: only the 5 largest peers send
	// >10K routes; 307 peers send <100).
	PeersOver10K, PeersUnder100 int
	MaxPeerRoutes               int
}

// RunAMSIXExperiment builds the calibrated Internet and joins AMS-IX,
// reproducing §4.1 end to end. Pass FullScaleSpec() for paper-scale
// numbers or a smaller spec for quick runs.
func RunAMSIXExperiment(spec internet.Spec) *AMSIXReport {
	g := internet.Generate(spec)
	x := ixp.BuildAMSIX(g, ixp.DefaultAMSIXSpec())
	pr := x.Join(7, true)

	rep := &AMSIXReport{
		Members:       len(x.MemberASNs()),
		OnRouteServer: len(x.RouteServerMembers()),
	}
	pc := x.PolicyCounts()
	rep.Open, rep.Closed = pc[policy.PeeringOpen], pc[policy.PeeringClosed]
	rep.CaseByCase, rep.Unlisted = pc[policy.PeeringCaseByCase], pc[policy.PeeringUnlisted]

	rep.RequestsSent = len(pr.Outcomes)
	for _, o := range pr.Outcomes {
		switch o {
		case ixp.OutcomeAccepted:
			rep.Accepted++
		case ixp.OutcomeAcceptedAfterQuestions:
			rep.AcceptedAfterQuestions++
		case ixp.OutcomeNoResponse:
			rep.NoResponse++
		case ixp.OutcomeDeclined:
			rep.Declined++
		}
	}

	rep.TotalPeers = len(pr.AllPeers())
	rep.Countries = len(pr.Countries())
	ranked := g.RankByCone()
	rep.Top50Peers = pr.TopRankedPeerCount(ranked, 50)
	rep.Top100Peers = pr.TopRankedPeerCount(ranked, 100)

	rep.PeerPrefixes = pr.ReachablePrefixCount()
	rep.TotalPrefixes = g.TotalPrefixes()
	if rep.TotalPrefixes > 0 {
		rep.PeerFraction = float64(rep.PeerPrefixes) / float64(rep.TotalPrefixes)
	}

	for _, n := range pr.PeerRouteCounts() {
		if n > 10000 {
			rep.PeersOver10K++
		}
		if n < 100 {
			rep.PeersUnder100++
		}
		if n > rep.MaxPeerRoutes {
			rep.MaxPeerRoutes = n
		}
	}
	return rep
}

// String renders the report next to the paper's numbers.
func (r *AMSIXReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "§4.1 AMS-IX deployment              measured   paper\n")
	fmt.Fprintf(&sb, "  members                           %7d     669\n", r.Members)
	fmt.Fprintf(&sb, "  on route servers                  %7d     554\n", r.OnRouteServer)
	fmt.Fprintf(&sb, "  open / closed / case / unlisted   %d/%d/%d/%d  48/12/40/15\n", r.Open, r.Closed, r.CaseByCase, r.Unlisted)
	fmt.Fprintf(&sb, "  bilateral accepted (of sent)      %3d/%-3d    'vast majority'\n", r.Accepted+r.AcceptedAfterQuestions, r.RequestsSent)
	fmt.Fprintf(&sb, "  peer countries                    %7d     59\n", r.Countries)
	fmt.Fprintf(&sb, "  of top-50 / top-100 ASes          %3d/%-4d   13/27\n", r.Top50Peers, r.Top100Peers)
	fmt.Fprintf(&sb, "  prefixes via peers                %7d     131,000\n", r.PeerPrefixes)
	fmt.Fprintf(&sb, "  fraction of Internet              %7.2f    0.25\n", r.PeerFraction)
	fmt.Fprintf(&sb, "  peers sending >10K routes         %7d     5\n", r.PeersOver10K)
	fmt.Fprintf(&sb, "  peers sending <100 routes         %7d     307\n", r.PeersUnder100)
	return sb.String()
}

// ----------------------------------------------------------------------
// §4.1 — Destination coverage (Alexa-analog)

// CoverageReport reproduces the popular-destination reachability study:
// DNS over the top sites and their page resources, then peer-route
// coverage of the resolved addresses.
type CoverageReport struct {
	// Paper: Alexa Top 500; peer routes to 157 of them.
	Sites, SitesOnPeerRoutes int
	// Paper: 49,776 resources from 4,182 FQDNs → 2,757 IPs, 1,055 on
	// peer routes.
	ResourceRefs, FQDNs  int
	IPs, IPsOnPeerRoutes int
}

// RunDestinationCoverage generates the content model over g and
// checks which destinations are reachable via pr's peer routes.
func RunDestinationCoverage(g *internet.Graph, pr *ixp.Presence, spec internet.ContentSpec) *CoverageReport {
	content := internet.GenerateContent(g, spec)
	reachable := pr.ReachableASNs()

	rep := &CoverageReport{
		Sites:        len(content.Sites),
		ResourceRefs: content.TotalResourceRefs(),
		FQDNs:        len(content.AllFQDNs()),
	}
	ipOnPeer := func(ip netip.Addr) bool {
		return reachable[content.OriginAS[ip]]
	}
	for _, s := range content.Sites {
		// A site is on peer routes if any of its front-end addresses is.
		for _, ip := range content.DNS[s.Domain] {
			if ipOnPeer(ip) {
				rep.SitesOnPeerRoutes++
				break
			}
		}
	}
	for _, ip := range content.AllIPs() {
		rep.IPs++
		if ipOnPeer(ip) {
			rep.IPsOnPeerRoutes++
		}
	}
	return rep
}

// String renders the report next to the paper's numbers.
func (r *CoverageReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "§4.1 destination coverage           measured   paper\n")
	fmt.Fprintf(&sb, "  top sites                         %7d     500\n", r.Sites)
	fmt.Fprintf(&sb, "  sites on peer routes              %7d     157\n", r.SitesOnPeerRoutes)
	fmt.Fprintf(&sb, "  resource references               %7d     49,776\n", r.ResourceRefs)
	fmt.Fprintf(&sb, "  distinct FQDNs                    %7d     4,182\n", r.FQDNs)
	fmt.Fprintf(&sb, "  distinct IPs                      %7d     2,757\n", r.IPs)
	fmt.Fprintf(&sb, "  IPs on peer routes                %7d     1,055\n", r.IPsOnPeerRoutes)
	return sb.String()
}

// ----------------------------------------------------------------------
// Figure 2 — BGP table memory vs. peers × prefixes

// TableMemoryPoint is one Figure 2 data point: the heap consumed by a
// single router holding routesPerPeer prefixes from each of peers
// peers.
type TableMemoryPoint struct {
	Peers         int
	RoutesPerPeer int
	// Bytes is the measured heap growth attributable to the router's
	// tables.
	Bytes uint64
	// Routes is the resulting Loc-RIB candidate count (peers ×
	// routesPerPeer when all peers send the same table).
	Routes int
}

// MeasureTableMemory reproduces one Figure 2 point: N lightweight
// feeders each send X routes into one router (the Quagga stand-in),
// and the router's resident table memory is measured. The reading is a
// process-wide heap delta, so memory an earlier caller left behind and
// the collector frees mid-measurement can push it to zero or below;
// such a point is measured again, up to three times in all.
func MeasureTableMemory(peers, routesPerPeer int) TableMemoryPoint {
	var pt TableMemoryPoint
	for try := 0; try < 3 && pt.Bytes == 0; try++ {
		pt = measureTableMemoryOnce(peers, routesPerPeer)
	}
	return pt
}

func measureTableMemoryOnce(peers, routesPerPeer int) TableMemoryPoint {
	heapBefore := heapInUse()

	r := router.New(router.Config{AS: 65000, RouterID: netip.MustParseAddr("10.99.0.1")})
	done := make(chan struct{}, peers)
	for i := 0; i < peers; i++ {
		peerAddr := netip.AddrFrom4([4]byte{10, 99, 1, byte(i + 1)})
		p := r.AddPeer(router.PeerConfig{
			Addr: peerAddr, LocalAddr: netip.MustParseAddr("10.99.0.1"),
			AS: uint32(64512 + i), Describe: fmt.Sprintf("feeder%d", i),
		})
		ca, cb := bufconn.Pipe()
		r.Attach(p, ca)
		go feedRoutes(cb, uint32(64512+i), peerAddr, routesPerPeer, done)
	}
	for i := 0; i < peers; i++ {
		<-done
	}
	// Wait for the router to finish ingesting.
	want := peers * routesPerPeer
	deadline := time.Now().Add(5 * time.Minute)
	for r.LocRIB().Routes() < want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	pt := TableMemoryPoint{
		Peers:         peers,
		RoutesPerPeer: routesPerPeer,
		Routes:        r.LocRIB().Routes(),
	}
	if after := heapInUse(); after > heapBefore {
		pt.Bytes = after - heapBefore
	}
	runtime.KeepAlive(r)
	return pt
}

// feedRoutes speaks just enough BGP to push count routes, then keeps
// the session alive until the process ends (holding its side open).
func feedRoutes(conn *bufconn.Conn, asn uint32, addr netip.Addr, count int, done chan<- struct{}) {
	opts := wire.Options{AS4: true}
	open := &wire.Open{AS: wire.ASTrans, HoldTime: 0, BGPID: addr, Caps: wire.StandardCaps(asn, false)}
	b, _ := wire.Marshal(open, opts)
	conn.Write(b)
	if _, err := wire.ReadMessage(conn, opts); err != nil { // router's OPEN
		done <- struct{}{}
		return
	}
	kb, _ := wire.Marshal(&wire.Keepalive{}, opts)
	conn.Write(kb)
	if _, err := wire.ReadMessage(conn, opts); err != nil { // router's KEEPALIVE
		done <- struct{}{}
		return
	}
	// Drain concurrently from the start: the router exports its table
	// back to every peer, and an unread 1MB buffer would stall its
	// writer (and transitively the whole measurement).
	go func() {
		for {
			if _, err := wire.ReadMessage(conn, opts); err != nil {
				return
			}
		}
	}()
	// Batch 64 prefixes per UPDATE, with path variety every batch.
	const batch = 64
	for sent := 0; sent < count; {
		n := batch
		if count-sent < n {
			n = count - sent
		}
		u := &wire.Update{
			Attrs: &wire.Attrs{
				Origin: wire.OriginIGP,
				ASPath: []wire.Segment{{Type: wire.SegSequence, ASNs: []uint32{
					asn, 3356 + uint32(sent%7), 1299 + uint32(sent%11),
				}}},
				NextHop: addr,
			},
		}
		for i := 0; i < n; i++ {
			// One /24 per index, carved sequentially from 5.0.0.0/8
			// (the same prefixes from every feeder, like real peers
			// each sending the full table).
			v := uint32(5)<<24 + uint32(sent+i)<<8
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{
				byte(v >> 24), byte(v >> 16), byte(v >> 8), 0,
			}), 24)
			u.Reach = append(u.Reach, wire.NLRI{Prefix: p})
		}
		b, err := wire.Marshal(u, opts)
		if err != nil {
			break
		}
		if _, err := conn.Write(b); err != nil {
			break
		}
		sent += n
	}
	done <- struct{}{}
}

// heapInUse returns the live heap after a full GC.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ----------------------------------------------------------------------
// §4.2 — Hurricane Electric backbone emulation

// HEEmulationReport reproduces the §4.2 experiment: the 24-PoP HE
// backbone in MinineXt, fully converged, with its memory footprint
// (the paper ran it in 8 GB on a commodity desktop).
type HEEmulationReport struct {
	PoPs, Links  int
	Converged    bool
	ConvergeTime time.Duration
	// RoutesAtAmsterdam counts prefixes the Amsterdam PoP holds.
	RoutesAtAmsterdam int
	// PingAmsterdamToTokyo verifies end-to-end data-plane connectivity
	// across the emulated backbone.
	PingAmsterdamToTokyo bool
	// HeapBytes is the emulation's measured heap footprint.
	HeapBytes uint64
}

// RunHEEmulation builds and exercises the HE backbone.
func RunHEEmulation() (*HEEmulationReport, error) {
	heapBefore := heapInUse()
	start := time.Now()
	he := topozoo.HurricaneElectric()
	res, err := mininext.BuildFromTopology(he, 65000, netip.MustParsePrefix("100.65.0.0/16"))
	if err != nil {
		return nil, err
	}
	rep := &HEEmulationReport{PoPs: res.Network.Stats().Containers, Links: res.Network.Stats().Links}
	deadline := time.Now().Add(30 * time.Second)
	for !res.Converged() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	rep.Converged = res.Converged()
	rep.ConvergeTime = time.Since(start)

	ams := res.ByLabel["Amsterdam"]
	rep.RoutesAtAmsterdam = ams.BGP.LocRIB().Prefixes()

	// Data-plane check: ping Tokyo's PoP prefix from Amsterdam.
	tokyoHost := res.PrefixOf["Tokyo"].Addr().Next()
	pkt := pingPacket(res.PrefixOf["Amsterdam"].Addr().Next(), tokyoHost)
	tokyo := res.ByLabel["Tokyo"]
	before := tokyo.DP.Stats().DeliveredLocal
	ams.DP.Originate(pkt)
	rep.PingAmsterdamToTokyo = tokyo.DP.Stats().DeliveredLocal > before

	// Clamped like MeasureTableMemory: earlier work in the process may
	// release more than the emulation holds, and the difference is
	// unsigned.
	if after := heapInUse(); after > heapBefore {
		rep.HeapBytes = after - heapBefore
	}
	runtime.KeepAlive(res)
	return rep, nil
}

func pingPacket(src, dst netip.Addr) *Packet {
	pkt := &Packet{Src: src, Dst: dst, TTL: 64, Proto: 1 /* ICMP */}
	pkt.ICMP = 8 // echo request
	pkt.ID = 1
	return pkt
}

// ----------------------------------------------------------------------
// Ablation: route server vs. bilateral-only connectivity

// RouteServerAblation quantifies what the route server buys: peers and
// reachable prefixes with multilateral peering vs. a bilateral-only
// campaign (§3's argument for targeting IXPs with route servers).
type RouteServerAblation struct {
	WithRS    AblationArm
	Bilateral AblationArm
}

// AblationArm is one side of the comparison.
type AblationArm struct {
	Peers           int
	ReachablePrefix int
}

// RunRouteServerAblation computes both arms on the same Internet.
func RunRouteServerAblation(spec internet.Spec) *RouteServerAblation {
	g := internet.Generate(spec)
	x := ixp.BuildAMSIX(g, ixp.DefaultAMSIXSpec())
	withRS := x.Join(7, true)
	bilateralOnly := &ixp.Presence{IXP: x, Outcomes: withRS.Outcomes, BilateralPeers: withRS.BilateralPeers}
	return &RouteServerAblation{
		WithRS:    AblationArm{Peers: len(withRS.AllPeers()), ReachablePrefix: withRS.ReachablePrefixCount()},
		Bilateral: AblationArm{Peers: len(bilateralOnly.AllPeers()), ReachablePrefix: bilateralOnly.ReachablePrefixCount()},
	}
}

// ----------------------------------------------------------------------
// Convergence sanity for live testbeds

// LocRIBOfCollector exposes the collector's merged table size for
// report generation without importing internal packages in cmd/.
func (tb *Testbed) LocRIBOfCollector() int { return tb.Collector.Prefixes() }

// RouteAtCollector reports whether the collector sees p, and its AS
// path if so.
func (tb *Testbed) RouteAtCollector(p netip.Prefix) (string, bool) {
	rt := tb.Collector.Route(p)
	if rt == nil {
		return "", false
	}
	return rt.Attrs.PathString(), true
}
