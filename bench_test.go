package peering

// The benchmark harness regenerates every table and figure in the
// paper's evaluation (§4) plus the ablations DESIGN.md calls out:
//
//	BenchmarkAMSIXPeering          — §4.1 "Obtaining peers" numbers
//	BenchmarkPeerComposition       — §4.1 "Who do we peer with"
//	BenchmarkDestinationCoverage   — §4.1 "Which destinations"
//	BenchmarkPeerRouteDistribution — §4.1 route-count distribution
//	BenchmarkFig2TableMemory       — Figure 2 (RIB memory vs N×X)
//	BenchmarkHEBackboneEmulation   — §4.2 Hurricane Electric emulation
//	BenchmarkTable1Capabilities    — Table 1 capability matrix
//	BenchmarkMuxModeAblation       — Quagga vs BIRD multiplexing
//	BenchmarkRouteServerAblation   — route server vs bilateral-only
//	BenchmarkDampeningAblation     — flap dampening on/off
//	BenchmarkTrieVsMap             — LPM index structure choice
//
// Run: go test -bench=. -benchmem
// Absolute values depend on this substrate; the paper-vs-measured
// comparison lives in EXPERIMENTS.md.

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"peering/internal/bufconn"
	"peering/internal/clock"
	"peering/internal/dampen"
	"peering/internal/internet"
	"peering/internal/ixp"
	"peering/internal/muxproto"
	"peering/internal/router"
	"peering/internal/server"
	"peering/internal/trie"

	clientpkg "peering/internal/client"
)

// fullScale caches the paper-scale Internet and AMS-IX join so the
// four §4.1 benches don't regenerate 525K prefixes each.
var fullScale struct {
	once sync.Once
	g    *internet.Graph
	x    *ixp.IXP
	pr   *ixp.Presence
	rep  *AMSIXReport
}

func fullScaleSetup() {
	fullScale.once.Do(func() {
		fullScale.rep = RunAMSIXExperiment(FullScaleSpec())
		fullScale.g = internet.Generate(FullScaleSpec())
		fullScale.x = ixp.BuildAMSIX(fullScale.g, ixp.DefaultAMSIXSpec())
		fullScale.pr = fullScale.x.Join(7, true)
	})
}

// BenchmarkAMSIXPeering regenerates the §4.1 "Obtaining peers" table:
// membership, route-server share, bilateral policy split, and request
// outcomes.
func BenchmarkAMSIXPeering(b *testing.B) {
	fullScaleSetup()
	rep := fullScale.rep
	for i := 0; i < b.N; i++ {
		_ = RunAMSIXExperiment(internet.Spec{
			Seed: int64(i), ASes: 2000, Tier1s: 12, Transits: 250, CDNs: 16, Contents: 40, Prefixes: 30000,
		})
	}
	b.ReportMetric(float64(rep.Members), "members")
	b.ReportMetric(float64(rep.OnRouteServer), "rs-members")
	b.ReportMetric(float64(rep.Accepted+rep.AcceptedAfterQuestions), "bilateral-accepted")
	b.Logf("paper-scale report:\n%s", rep)
}

// BenchmarkPeerComposition regenerates §4.1 "Who do we peer with":
// countries and top-cone coverage.
func BenchmarkPeerComposition(b *testing.B) {
	fullScaleSetup()
	var countries, top50, top100 int
	ranked := fullScale.g.RankByCone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		countries = len(fullScale.pr.Countries())
		top50 = fullScale.pr.TopRankedPeerCount(ranked, 50)
		top100 = fullScale.pr.TopRankedPeerCount(ranked, 100)
	}
	b.ReportMetric(float64(countries), "countries")
	b.ReportMetric(float64(top50), "of-top50")
	b.ReportMetric(float64(top100), "of-top100")
}

// BenchmarkDestinationCoverage regenerates §4.1 "Which destinations":
// prefixes via peers and the Alexa-analog coverage.
func BenchmarkDestinationCoverage(b *testing.B) {
	fullScaleSetup()
	var rep *CoverageReport
	for i := 0; i < b.N; i++ {
		rep = RunDestinationCoverage(fullScale.g, fullScale.pr, internet.DefaultContentSpec())
	}
	b.ReportMetric(float64(fullScale.rep.PeerPrefixes), "peer-prefixes")
	b.ReportMetric(fullScale.rep.PeerFraction, "peer-fraction")
	b.ReportMetric(float64(rep.SitesOnPeerRoutes), "sites-on-peers")
	b.ReportMetric(float64(rep.IPsOnPeerRoutes), "ips-on-peers")
	b.Logf("coverage report:\n%s", rep)
}

// BenchmarkPeerRouteDistribution regenerates the §4.2 observation that
// peer route counts are heavy-tailed ("only our 5 largest peers give
// us more than 10K routes, and 307 give us fewer than 100").
func BenchmarkPeerRouteDistribution(b *testing.B) {
	fullScaleSetup()
	var over10k, under100, max int
	for i := 0; i < b.N; i++ {
		over10k, under100, max = 0, 0, 0
		for _, n := range fullScale.pr.PeerRouteCounts() {
			if n > 10000 {
				over10k++
			}
			if n < 100 {
				under100++
			}
			if n > max {
				max = n
			}
		}
	}
	b.ReportMetric(float64(over10k), "peers>10k")
	b.ReportMetric(float64(under100), "peers<100")
	b.ReportMetric(float64(max), "max-routes")
}

// BenchmarkFig2TableMemory regenerates Figure 2: memory of one router
// as the number of peers (N) and routes per peer (X) grow.
func BenchmarkFig2TableMemory(b *testing.B) {
	type point struct{ peers, routes int }
	points := []point{
		{1, 1000}, {5, 1000}, {10, 1000}, {20, 1000},
		{1, 10000}, {5, 10000}, {10, 10000}, {20, 10000},
		{1, 100000}, {5, 100000},
		{1, 500000}, // the paper's Internet-scale table
	}
	for _, pt := range points {
		b.Run(fmt.Sprintf("peers=%d/routes=%d", pt.peers, pt.routes), func(b *testing.B) {
			var m TableMemoryPoint
			for i := 0; i < b.N; i++ {
				m = MeasureTableMemory(pt.peers, pt.routes)
			}
			b.ReportMetric(float64(m.Bytes)/(1<<20), "MB")
			b.ReportMetric(float64(m.Routes), "routes")
		})
	}
}

// BenchmarkHEBackboneEmulation regenerates §4.2: the 24-PoP Hurricane
// Electric backbone in MinineXt — convergence and memory footprint.
func BenchmarkHEBackboneEmulation(b *testing.B) {
	var rep *HEEmulationReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = RunHEEmulation()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Converged || !rep.PingAmsterdamToTokyo {
			b.Fatalf("emulation unhealthy: %+v", rep)
		}
	}
	b.ReportMetric(float64(rep.PoPs), "pops")
	b.ReportMetric(float64(rep.ConvergeTime.Milliseconds()), "converge-ms")
	b.ReportMetric(float64(rep.HeapBytes)/(1<<20), "MB")
}

// BenchmarkTable1Capabilities regenerates Table 1 and verifies its
// closing claim.
func BenchmarkTable1Capabilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !NoTwoSystemsCombine() {
			b.Fatal("Table 1 claim violated")
		}
	}
	b.Logf("Table 1:\n%s", Table1())
}

// ----------------------------------------------------------------------
// Ablations

// benchRig builds a server with nUpstreams router-backed peers, each
// announcing routesPerUpstream prefixes, and returns a connected
// client plus a cleanup function.
func benchRig(b *testing.B, mode muxproto.Mode, nUpstreams, routesPerUpstream int) (*clientpkg.Client, func()) {
	b.Helper()
	srv := server.New(server.Config{
		Site: "bench", ASN: 47065, RouterID: netip.MustParseAddr("184.164.224.1"), Mode: mode,
	})
	for i := 0; i < nUpstreams; i++ {
		up := router.New(router.Config{
			AS:       uint32(3000 + i),
			RouterID: netip.AddrFrom4([4]byte{4, 69, byte(i >> 8), byte(i + 1)}),
		})
		for j := 0; j < routesPerUpstream; j++ {
			v := uint32(20)<<24 + uint32(i)<<16 + uint32(j)<<8
			up.Announce(netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), 0}), 24), router.AnnounceSpec{})
		}
		u, err := srv.AddUpstream(server.UpstreamConfig{
			ID: uint32(i + 1), Name: fmt.Sprintf("up%d", i), ASN: up.AS(),
			PeerAddr:  up.RouterID(),
			LocalAddr: netip.MustParseAddr("184.164.224.1"),
		})
		if err != nil {
			b.Fatal(err)
		}
		p := up.AddPeer(router.PeerConfig{
			Addr: netip.MustParseAddr("184.164.224.1"), LocalAddr: up.RouterID(), AS: 47065,
		})
		ca, cb := bufconn.Pipe()
		srv.AttachUpstream(u, ca)
		up.Attach(p, cb)
	}
	if err := srv.RegisterClient(server.ClientAccount{
		ID: "bench", Allocation: []netip.Prefix{netip.MustParsePrefix("184.164.224.0/24")},
		TunnelAddr: netip.MustParseAddr("10.250.0.1"),
	}); err != nil {
		b.Fatal(err)
	}
	ca, cb := bufconn.Pipe()
	if err := srv.AcceptClient("bench", ca); err != nil {
		b.Fatal(err)
	}
	cl, err := clientpkg.Connect(clientpkg.Config{Name: "bench", RouterID: netip.MustParseAddr("184.164.224.2")}, cb)
	if err != nil {
		b.Fatal(err)
	}
	if err := cl.WaitEstablished(30 * time.Second); err != nil {
		b.Fatal(err)
	}
	return cl, func() { cl.Close(); srv.Close() }
}

// BenchmarkMuxModeAblation compares Quagga-mode (one session per
// client×peer) against BIRD/ADD-PATH mode (one session per client) —
// the §3 motivation for the BIRD substitution: time for a client to
// receive full tables from K upstreams, and how many sessions it took.
func BenchmarkMuxModeAblation(b *testing.B) {
	const nUp, routes = 16, 200
	for _, mode := range []muxproto.Mode{muxproto.ModeQuagga, muxproto.ModeBIRD} {
		b.Run(string(mode), func(b *testing.B) {
			var sessions int
			for i := 0; i < b.N; i++ {
				cl, cleanup := benchRig(b, mode, nUp, routes)
				deadline := time.Now().Add(60 * time.Second)
				for time.Now().Before(deadline) {
					total := 0
					for id := uint32(1); id <= nUp; id++ {
						total += cl.RouteCount(id)
					}
					if total >= nUp*routes {
						break
					}
					time.Sleep(time.Millisecond)
				}
				sessions = cl.SessionCount()
				cleanup()
			}
			b.ReportMetric(float64(sessions), "sessions")
			b.ReportMetric(float64(nUp*routes), "routes")
		})
	}
}

// BenchmarkRouteServerAblation quantifies what the route server buys
// over a bilateral-only campaign — §3's argument for IXP route servers.
func BenchmarkRouteServerAblation(b *testing.B) {
	var ab *RouteServerAblation
	for i := 0; i < b.N; i++ {
		ab = RunRouteServerAblation(internet.Spec{
			Seed: 42, ASes: 2000, Tier1s: 12, Transits: 250, CDNs: 16, Contents: 40, Prefixes: 30000,
		})
	}
	b.ReportMetric(float64(ab.WithRS.Peers), "peers-with-rs")
	b.ReportMetric(float64(ab.Bilateral.Peers), "peers-bilateral")
	b.ReportMetric(float64(ab.WithRS.ReachablePrefix), "prefixes-with-rs")
	b.ReportMetric(float64(ab.Bilateral.ReachablePrefix), "prefixes-bilateral")
}

// BenchmarkDampeningAblation measures the safety interposition: how
// many of a misbehaving client's flaps reach the Internet with
// dampening on (default) vs. effectively off.
func BenchmarkDampeningAblation(b *testing.B) {
	run := func(cfg dampen.Config) (suppressed int) {
		v := clock.NewVirtual(time.Date(2014, 10, 27, 0, 0, 0, 0, time.UTC))
		d := dampen.New(cfg, v)
		k := dampen.Key{
			Prefix: netip.MustParsePrefix("184.164.224.0/24"),
			Source: netip.MustParseAddr("10.250.0.1"),
		}
		for i := 0; i < 50; i++ {
			if d.RecordFlap(k) {
				suppressed++
			}
			v.Advance(10 * time.Second)
		}
		return suppressed
	}
	off := dampen.DefaultConfig()
	off.SuppressThreshold = 1e12 // effectively disabled
	var withDamp, without int
	for i := 0; i < b.N; i++ {
		withDamp = run(dampen.DefaultConfig())
		without = run(off)
	}
	b.ReportMetric(float64(withDamp), "suppressed-on")
	b.ReportMetric(float64(without), "suppressed-off")
	if without != 0 || withDamp == 0 {
		b.Fatalf("ablation inverted: on=%d off=%d", withDamp, without)
	}
}

// BenchmarkTrieVsMap justifies the radix trie behind the FIB: longest-
// prefix match via the trie vs. a brute-force scan over a map — the
// design choice DESIGN.md calls out. (The RIBs never match by covering
// prefix and are maps.)
func BenchmarkTrieVsMap(b *testing.B) {
	const n = 100000
	prefixes := make([]netip.Prefix, n)
	tr := trie.New[int]()
	m := make(map[netip.Prefix]int, n)
	for i := range prefixes {
		v := uint32(30)<<24 + uint32(i)<<8
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), 0}), 24)
		prefixes[i] = p
		tr.Insert(p, i)
		m[p] = i
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		v := uint32(30)<<24 + uint32(i*97%n)<<8 + 1
		addrs[i] = netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Lookup(addrs[i%len(addrs)])
		}
	})
	b.Run("map-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			addr := addrs[i%len(addrs)]
			best := -1
			bestBits := -1
			for p, v := range m {
				if p.Contains(addr) && p.Bits() > bestBits {
					best, bestBits = v, p.Bits()
				}
			}
			_ = best
		}
	})
}
