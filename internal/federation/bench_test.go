package federation

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"testing"
	"time"

	"peering/internal/benchenv"
	"peering/internal/bufconn"
	"peering/internal/client"
	"peering/internal/clock"
	"peering/internal/ixp"
	"peering/internal/router"
	"peering/internal/server"
	"peering/internal/telemetry"
)

// TestFederationBenchmark measures the cost of federating: three muxes
// (amsterdam and phoenix colocated, seattle on remote peering), a real
// upstream at each remote site announcing a table, and a fleet of
// count-only clients at amsterdam that must converge on every remote
// peer's routes over the backhaul. Reported: cross-mux convergence
// time (from the mesh's own histogram — dial to end-of-RIB), relay
// rate into the client fleet, and backhaul bytes per route crossing.
//
// In the plain `go test` gate this runs a small smoke sizing; `make
// bench-federation` sets BENCH_FEDERATION_JSON, which switches to the
// full 16-client sizing and writes the measurement as JSON.
func TestFederationBenchmark(t *testing.T) {
	nClients, nRoutes := 4, 150
	testStart := time.Now()
	out := os.Getenv("BENCH_FEDERATION_JSON")
	if out != "" {
		nClients, nRoutes = 16, 1000
	}

	clk := clock.System
	ams := newTestServer(t, "amsterdam01", 0, clk)
	phx := newTestServer(t, "phoenix01", 1, clk)
	sea := newTestServer(t, "seattle01", 2, clk)

	phxSpec, seaSpec := spec(1, 1239, 1), spec(1, 6939, 2)
	phxUp := attachPeer(t, phx, phxSpec, clk)
	seaUp := attachPeer(t, sea, seaSpec, clk)
	for i := 0; i < nRoutes; i++ {
		p := prefix(fmt.Sprintf("%d.%d.%d.0/24", 60+i/65536, i/256%256, i%256))
		phxUp.Announce(p, router.AnnounceSpec{})
		p = prefix(fmt.Sprintf("%d.%d.%d.0/24", 70+i/65536, i/256%256, i%256))
		seaUp.Announce(p, router.AnnounceSpec{MED: uint32(i % 100), MEDSet: true})
	}
	benchWait(t, "remote sites hold their tables", func() bool {
		return phx.Upstream(1).RoutesIn() == nRoutes && sea.Upstream(1).RoutesIn() == nRoutes
	})

	// The mesh comes up with the tables already in place, so the
	// convergence histogram measures a full-table backhaul sync.
	reg := telemetry.NewRegistry()
	start := time.Now()
	mesh := newTestMesh(t, clk, reg,
		Member{Server: ams, RouterID: addr("184.164.224.1"), Site: physicalSite("amsterdam01")},
		Member{Server: phx, RouterID: addr("184.164.224.2"), Site: physicalSite("phoenix01")},
		Member{Server: sea, RouterID: addr("184.164.224.3"), Site: ixp.Site{Name: "seattle01", Kind: ixp.SiteRemote, Provider: "hibernia"}},
	)

	phxID, seaID := fedIDBase(1)+1, fedIDBase(2)+1
	clients := make([]*client.Client, nClients)
	for i := range clients {
		id := fmt.Sprintf("bench%02d", i)
		tun := addr(fmt.Sprintf("10.250.0.%d", 10+i))
		if err := ams.RegisterClient(server.ClientAccount{ID: id, TunnelAddr: tun,
			Allocation: []netip.Prefix{prefix(fmt.Sprintf("184.164.%d.0/24", 224+i))}}); err != nil {
			t.Fatal(err)
		}
		ca, cb := bufconn.Pipe()
		if err := ams.AcceptClient(id, ca); err != nil {
			t.Fatal(err)
		}
		cl, err := client.Connect(client.Config{Name: id, RouterID: tun, Clock: clk, CountOnly: true}, cb)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		clients[i] = cl
	}
	for i, cl := range clients {
		cl := cl
		deadline := time.Now().Add(120 * time.Second)
		for !(cl.RouteCount(phxID) == nRoutes && cl.RouteCount(seaID) == nRoutes) {
			if !time.Now().Before(deadline) {
				t.Fatalf("timed out waiting for client %d cross-mux convergence: phx=%d/%d sea=%d/%d, queue depths %v",
					i, cl.RouteCount(phxID), nRoutes, cl.RouteCount(seaID), nRoutes, ams.QueueDepths())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	elapsed := time.Since(start)

	// Backhaul cost: total bytes and write calls on every link over the
	// number of route deliveries that crossed a backhaul hop (each
	// site's table is mirrored at both other members).
	var backhaulBytes, backhaulWrites int64
	for _, l := range mesh.links {
		a, b := l.ca.Stats(), l.cb.Stats()
		backhaulBytes += a.BytesWritten + b.BytesWritten
		backhaulWrites += a.Writes + b.Writes
	}
	crossings := 4 * nRoutes
	bytesPerRoute := float64(backhaulBytes) / float64(crossings)
	writesPerRoute := float64(backhaulWrites) / float64(crossings)

	// End-of-RIB closes the convergence measurement and trails the last
	// route by a frame, so give each mirror's sample a moment to land.
	conv := map[string]float64{}
	for _, via := range []string{"phoenix01", "seattle01"} {
		h := mesh.metrics.convergence.With("amsterdam01", via)
		benchWait(t, "convergence sample via "+via, func() bool { return h.Count() > 0 })
		conv["amsterdam01<-"+via] = h.Sum() / float64(h.Count())
	}
	relayed := nClients * 2 * nRoutes
	routesPerSec := float64(relayed) / elapsed.Seconds()

	t.Logf("3 muxes, %d clients at amsterdam, %d routes/site: fleet converged in %v (%.0f routes/s to clients)",
		nClients, nRoutes, elapsed.Round(time.Millisecond), routesPerSec)
	t.Logf("backhaul: %d bytes and %d writes for %d route crossings (%.1f B/route, %.3f writes/route); convergence %v",
		backhaulBytes, backhaulWrites, crossings, bytesPerRoute, writesPerRoute, conv)

	if out != "" {
		b, err := json.MarshalIndent(map[string]any{
			"muxes":                     3,
			"clients":                   nClients,
			"routes_per_site":           nRoutes,
			"fleet_convergence_seconds": elapsed.Seconds(),
			"routes_per_second":         routesPerSec,
			"cross_mux_convergence_avg": conv,
			"backhaul_bytes_total":      backhaulBytes,
			"backhaul_bytes_per_route":  bytesPerRoute,
			"backhaul_writes_total":     backhaulWrites,
			"backhaul_writes_per_route": writesPerRoute,
			"backhaul_route_crossings":  crossings,
			"env":                       benchenv.Capture(testStart),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// benchWait is waitFor with a deadline sized for bench tables.
func benchWait(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	tb.Fatalf("timed out waiting for %s", what)
}
