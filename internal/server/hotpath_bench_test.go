package server

// Hot-path benchmarks: allocation cost of the full announce→relay
// pipeline. The scenario is the acceptance rig — 1 upstream × 8 clients
// × 1000 routes — driven through real BGP sessions over bufconn, so the
// measurement covers message decode, Adj-RIB-In bookkeeping, attribute
// interning, fan-out queueing, batch packing, encode, and the clients'
// own decode+store path. One "op" is one route delivered to one client.
//
// TestRelayHotPathAllocs is the `make bench` entry point: it measures a
// fixed number of relay rounds with runtime.MemStats and, when
// BENCH_HOTPATH_JSON names a path, writes the result next to the
// committed pre-PR baseline so the allocation win stays auditable.

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"

	"peering/internal/benchenv"
	"peering/internal/bgp"
	"peering/internal/bufconn"
	"peering/internal/client"
	"peering/internal/dataplane"
	"peering/internal/muxproto"
	"peering/internal/router"
	"peering/internal/wire"
)

// relayRound re-announces nRoutes prefixes with a round-specific MED
// (forcing a full re-export from the upstream router) and waits until
// every client has been sent its copy of every route.
func relayRound(tb testing.TB, fb *fanoutBench, round, nRoutes, nClients int) {
	tb.Helper()
	target := fb.srv.Stats().RoutesRelayedToClients + uint64(nRoutes*nClients)
	for i := 0; i < nRoutes; i++ {
		fb.up.Announce(benchPrefix(i), router.AnnounceSpec{MED: uint32(round), MEDSet: true})
	}
	benchWait(tb, fmt.Sprintf("relay round %d", round), func() bool {
		return fb.srv.Stats().RoutesRelayedToClients >= target
	})
}

// BenchmarkRelayHotPath reports ns/op, B/op, and allocs/op for one route
// relayed to one client across the full pipeline.
func BenchmarkRelayHotPath(b *testing.B) {
	const nClients, nRoutes = 8, 1000
	fb := newFanoutBench(b, nClients)
	defer fb.close()
	relayRound(b, fb, 0, nRoutes, nClients) // warm tables and queues

	b.ReportAllocs()
	b.ResetTimer()
	round := 0
	for done := 0; done < b.N; done += nRoutes * nClients {
		round++
		relayRound(b, fb, round, nRoutes, nClients)
	}
	b.StopTimer()
}

// BenchmarkTunnelForward reports ns/op, B/op and allocs/op for one
// packet on the data-plane path: a real client.Client's SendPacket →
// tunnel frame → packet decode → spoof filter → FIB lookup → egress
// node. The sender reuses one packet, so every allocation reported is
// the path's own; at most tunnelForwardWindow packets are in flight,
// because the tunnel's stream buffers without limit.
func BenchmarkTunnelForward(b *testing.B) {
	const tunnelForwardWindow = 1024
	r := newRig(b, muxproto.ModeQuagga)
	egress := r.addEgress()
	cl := r.connectClient(b, "exp1", clientAlloc(), false)
	pkt := dataplane.NewPacket(addr("184.164.224.10"), addr("93.184.216.34"), dataplane.ProtoUDP)
	send := func(n int) {
		base := int(egress.packets.Load())
		delivered := func() int { return int(egress.packets.Load()) - base }
		for i := 1; i <= n; i++ {
			if err := cl.SendPacket(pkt); err != nil {
				b.Fatal(err)
			}
			for i%64 == 0 && i-delivered() > tunnelForwardWindow {
				runtime.Gosched()
			}
		}
		for delivered() < n {
			runtime.Gosched()
		}
	}
	send(tunnelForwardWindow) // warm pools, the reader's buffer and Trace

	b.ReportAllocs()
	b.ResetTimer()
	send(b.N)
	b.StopTimer()
	if st := r.srv.Stats(); st.SpoofsBlocked != 0 {
		b.Fatalf("spoof filter blocked %d legitimate packets", st.SpoofsBlocked)
	}
}

// BenchmarkChurnFanout reports ns/op, B/op and allocs/op for one
// delivery (one single-NLRI UPDATE reaching one client) on the steady
// state of the Internet: two upstream peers re-announcing /24s out of a
// pool one UPDATE at a time, under 512 rotating attribute sets, to 16
// clients over bufconn. Each op covers its share of decode, intern hit,
// fold, RIB install, frame build, the one encode and the 16 flushes;
// the speakers' own encode is in there too, the same on every run.
func BenchmarkChurnFanout(b *testing.B) {
	const nClients, pool, nAttrs, window = 16, 4096, 512, 2048
	r := newFrameRig(b, muxproto.ModeQuagga, 0, 2)
	srv := r.srv
	var speakers []*bgp.Session
	for i, u := range r.ups {
		ca, cb := bufconn.Pipe()
		srv.AttachUpstream(u, ca)
		sp := bgp.New(cb, bgp.Config{LocalAS: u.cfg.ASN, LocalID: addr(fmt.Sprintf("4.69.0.%d", i+1)), PeerAS: testbedASN}, bgp.HandlerFuncs{})
		go sp.Run()
		defer sp.Close()
		benchWait(b, "upstream session", func() bool { return u.Established() && sp.Established() })
		speakers = append(speakers, sp)
	}
	for i := 1; i <= nClients; i++ {
		id, tun := fmt.Sprintf("exp%d", i), addr(fmt.Sprintf("10.250.0.%d", i))
		if err := srv.RegisterClient(ClientAccount{
			ID: id, TunnelAddr: tun,
			Allocation: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{184, 164, byte(224 + i), 0}), 24)},
		}); err != nil {
			b.Fatal(err)
		}
		ca, cb := bufconn.Pipe()
		if err := srv.AcceptClient(id, ca); err != nil {
			b.Fatal(err)
		}
		cl, err := client.Connect(client.Config{Name: id, RouterID: tun, CountOnly: true}, cb)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		if err := cl.WaitEstablished(10 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	attrs := make([]*wire.Attrs, nAttrs)
	for i := range attrs {
		attrs[i] = fanoutAttrs(uint32(64512 + i))
	}
	// churn sends n single-NLRI UPDATEs through each speaker, in bursts
	// of window so a slow mux is never handed an unbounded backlog.
	sent := 0
	churn := func(n int) {
		for n > 0 {
			burst := min(n, window)
			n -= burst
			want := srv.Stats().RoutesRelayedToClients + uint64(burst*len(speakers)*nClients)
			for i := 0; i < burst; i++ {
				sent++
				p := netip.PrefixFrom(netip.AddrFrom4([4]byte{96, byte(sent % pool >> 8), byte(sent % pool), 0}), 24)
				for _, sp := range speakers {
					if err := sp.Send(&wire.Update{Attrs: attrs[sent%nAttrs], Reach: []wire.NLRI{{Prefix: p}}}); err != nil {
						b.Fatal(err)
					}
				}
			}
			for deadline := time.Now().Add(time.Minute); srv.Stats().RoutesRelayedToClients < want; runtime.Gosched() {
				if time.Now().After(deadline) {
					b.Fatal("timed out waiting for a burst to be delivered")
				}
			}
		}
	}
	churn(pool) // fill the pool: the timed part is re-announcement, not growth

	b.ReportAllocs()
	b.ResetTimer()
	churn((b.N + 2*nClients - 1) / (2 * nClients))
	b.StopTimer()
	if st := srv.Stats(); st.FanoutShed+st.FanoutResyncs != 0 {
		b.Fatalf("the mux shed %d routes and resynced %d times; the window is too wide", st.FanoutShed, st.FanoutResyncs)
	}
}

// hotpathMeasurement is one measured configuration of the relay path.
type hotpathMeasurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// prePRBaseline is the measurement recorded on the tree as it stood
// before the zero-allocation work (per-message body allocation, deep
// attribute clones per stored route, marshal-key batch grouping, one
// Server mutex), captured by this same test. Committed so the JSON
// artifact always carries the comparison point.
var prePRBaseline = hotpathMeasurement{
	NsPerOp:     2500,
	BytesPerOp:  1372.8,
	AllocsPerOp: 12.9,
}

// TestRelayHotPathAllocs measures the relay path and (under `make
// bench`) records BENCH_hotpath.json with the committed baseline
// alongside the current numbers.
func TestRelayHotPathAllocs(t *testing.T) {
	const nClients, nRoutes, rounds = 8, 1000, 3
	testStart := time.Now()
	fb := newFanoutBench(t, nClients)
	defer fb.close()
	relayRound(t, fb, 0, nRoutes, nClients) // warm-up round, unmeasured

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for r := 1; r <= rounds; r++ {
		relayRound(t, fb, r, nRoutes, nClients)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	ops := float64(rounds * nRoutes * nClients)
	cur := hotpathMeasurement{
		NsPerOp:     float64(elapsed.Nanoseconds()) / ops,
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / ops,
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / ops,
	}
	t.Logf("relay hot path: %.0f ns/op, %.1f B/op, %.2f allocs/op (%d routes × %d clients × %d rounds)",
		cur.NsPerOp, cur.BytesPerOp, cur.AllocsPerOp, nRoutes, nClients, rounds)

	// Allocation budget: the zero-allocation work halved (at least)
	// both bytes and allocations per relayed route; regressing past
	// that floor fails `make check`. Skipped under -race, whose
	// instrumentation allocates on its own.
	if !raceEnabled {
		if max := prePRBaseline.BytesPerOp / 2; cur.BytesPerOp > max {
			t.Errorf("relay path B/op regressed: %.1f > budget %.1f (half the pre-PR baseline %.1f)",
				cur.BytesPerOp, max, prePRBaseline.BytesPerOp)
		}
		if max := prePRBaseline.AllocsPerOp / 2; cur.AllocsPerOp > max {
			t.Errorf("relay path allocs/op regressed: %.2f > budget %.2f (half the pre-PR baseline %.2f)",
				cur.AllocsPerOp, max, prePRBaseline.AllocsPerOp)
		}
	}

	if path := os.Getenv("BENCH_HOTPATH_JSON"); path != "" {
		out, err := json.MarshalIndent(map[string]any{
			"scenario": map[string]int{
				"upstreams": 1, "clients": nClients, "routes": nRoutes, "rounds": rounds,
			},
			"op":              "one route relayed to one client, full pipeline",
			"pre_pr_baseline": prePRBaseline,
			"current":         cur,
			"reduction": map[string]float64{
				"bytes_per_op":  1 - cur.BytesPerOp/prePRBaseline.BytesPerOp,
				"allocs_per_op": 1 - cur.AllocsPerOp/prePRBaseline.AllocsPerOp,
			},
			"env": benchenv.Capture(testStart),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
