package peering

// Full-table ingestion: the Internet-scale load test the sharded RIB
// and fan-out pipeline are sized for. A synthetic global table
// (internal/internet) is serialized as an MRT update trace and replayed
// at max speed through a real upstream BGP session into one mux, with a
// fleet of count-only clients attached — the standard workload for
// "does the table survive 1M prefixes × 64 clients".
//
// Three sizes of the same scenario:
//
//   - default `go test`: a ~25K-prefix smoke that checks the plumbing
//     (every client converges to the exact table) in seconds;
//   - under -race: smaller still, same assertions;
//   - BENCH_FULLTABLE_JSON=<path> (as `make bench-fulltable` arranges):
//     the full internet.FullTableSpec table — ≥1M prefixes, 64 clients
//     — with ingestion rate, convergence time, and steady-state heap
//     written to the named JSON file.
//
// TestFullTableScaling reruns the same rig at GOMAXPROCS 1, 4, and the
// machine default so the throughput numbers carry a parallelism curve,
// not a single opaque figure.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"peering/internal/benchenv"
	"peering/internal/bufconn"
	"peering/internal/internet"
	"peering/internal/mrt"
	"peering/internal/muxproto"
	"peering/internal/rib"
	"peering/internal/server"

	clientpkg "peering/internal/client"
)

// fullTableReport is the JSON shape of BENCH_fulltable.json.
type fullTableReport struct {
	Prefixes      int          `json:"prefixes"`
	Clients       int          `json:"clients"`
	Shards        int          `json:"shards"`
	TraceRecords  int          `json:"trace_records"`
	TraceBytes    uint64       `json:"trace_bytes"`
	IngestSecs    float64      `json:"ingest_seconds"`
	RoutesPerSec  float64      `json:"routes_per_sec_ingested"`
	ConvergeSecs  float64      `json:"convergence_seconds"`
	HeapBytes     uint64       `json:"steady_state_heap_bytes"`
	HeapMB        float64      `json:"steady_state_heap_mb"`
	RelayedNLRIs  uint64       `json:"nlris_relayed_to_clients"`
	FanoutUpdates uint64       `json:"updates_to_clients"`
	Env           benchenv.Env `json:"env"`
}

// buildTrace synthesizes the table for spec, serializes it as an MRT
// trace under t.TempDir, and drops the graph before returning: the
// steady-state heap measured later should reflect the mux's tables,
// not the generator's scaffolding.
func buildTrace(t *testing.T, spec internet.Spec) (path string, total int, ts internet.TraceStats) {
	t.Helper()
	g := internet.Generate(spec)
	total = g.TotalPrefixes()
	path = filepath.Join(t.TempDir(), "fulltable.mrt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	ts, err = internet.WriteTrace(bw, g, internet.TraceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if ts.Routes != total {
		t.Fatalf("trace carries %d routes, graph originates %d", ts.Routes, total)
	}
	g = nil
	runtime.GC()
	t.Logf("trace: %d prefixes from %d origins in %d records (%.1f MB)",
		ts.Routes, ts.Origins, ts.Records, float64(ts.Bytes)/(1<<20))
	return path, total, ts
}

// fullTableRun is one measured replay of a trace through a fresh mux.
type fullTableRun struct {
	IngestSecs    float64
	ConvergeSecs  float64
	HeapBytes     uint64
	RelayedNLRIs  uint64
	FanoutUpdates uint64
}

// runFullTable stands up one mux in BIRD mode (single ADD-PATH session
// per client) with nClients count-only clients attached, replays the
// trace at max speed, and waits for the table to land — first in the
// upstream's Adj-RIB-In (ingestion), then at every client (fan-out
// convergence). The fan-out queue cap is disabled: the whole point is
// to carry a full table through the queue, not to shed it. The rig is
// torn down before returning so back-to-back runs don't share state.
func runFullTable(t *testing.T, tracePath string, total, nClients int, deadline time.Duration) fullTableRun {
	t.Helper()
	srv := server.New(server.Config{
		Site: "fulltable", ASN: 47065,
		RouterID: netip.MustParseAddr("184.164.224.1"),
		Mode:     muxproto.ModeBIRD,
		Quota:    server.QuotaConfig{MaxQueueOps: -1},
	})
	defer srv.Close()
	up, err := srv.AddUpstream(server.UpstreamConfig{
		ID: 1, Name: "transit", ASN: 1, // WriteTrace announces from the first tier-1 (AS 1)
		PeerAddr:  netip.MustParseAddr("10.0.0.1"),
		LocalAddr: netip.MustParseAddr("10.0.0.2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*clientpkg.Client, nClients)
	for i := range clients {
		id := fmt.Sprintf("c%02d", i)
		if err := srv.RegisterClient(server.ClientAccount{
			ID:         id,
			Allocation: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(i), 0}), 24)},
			TunnelAddr: netip.AddrFrom4([4]byte{10, 250, 0, byte(i + 1)}),
		}); err != nil {
			t.Fatal(err)
		}
		ca, cb := bufconn.Pipe()
		if err := srv.AcceptClient(id, ca); err != nil {
			t.Fatal(err)
		}
		cl, err := clientpkg.Connect(clientpkg.Config{
			Name:      id,
			RouterID:  netip.AddrFrom4([4]byte{172, 16, byte(i), 1}),
			CountOnly: true,
		}, cb)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.WaitEstablished(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}

	start := time.Now()
	stats, sess, err := srv.ReplayUpstream(up, mrt.NewReader(mustOpen(t, tracePath)), mrt.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if stats.Routes != total {
		t.Fatalf("replay delivered %d routes, want %d", stats.Routes, total)
	}
	run := fullTableRun{}
	run.IngestSecs = waitCount(t, deadline, start, "upstream Adj-RIB-In", func() int { return up.RoutesIn() }, total)
	for i, cl := range clients {
		run.ConvergeSecs = waitCount(t, deadline, start, fmt.Sprintf("client %d view", i),
			cl.TotalRouteCount, total)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := srv.Stats()
	var mbuf strings.Builder
	srv.Telemetry().WriteTo(&mbuf)
	for _, line := range strings.Split(mbuf.String(), "\n") {
		if strings.Contains(line, "ingest_batch") || strings.Contains(line, "fanout_frames") || strings.Contains(line, "update_nlris") {
			t.Log(line)
		}
	}
	run.HeapBytes = ms.HeapAlloc
	run.RelayedNLRIs = st.RoutesRelayedToClients
	run.FanoutUpdates = st.UpdatesToClients
	if want := uint64(total) * uint64(nClients); st.RoutesRelayedToClients < want {
		t.Fatalf("fan-out relayed %d NLRIs, want ≥ %d (%d clients × %d prefixes)",
			st.RoutesRelayedToClients, want, nClients, total)
	}
	return run
}

func TestFullTableIngestion(t *testing.T) {
	testStart := time.Now()
	out := os.Getenv("BENCH_FULLTABLE_JSON")
	spec := internet.Spec{Seed: 2014, ASes: 2000, Tier1s: 8, Transits: 150, CDNs: 10, Contents: 30, Prefixes: 25000}
	nClients, deadline := 8, 2*time.Minute
	switch {
	case out != "":
		spec = internet.FullTableSpec()
		nClients, deadline = 64, 25*time.Minute
	case raceEnabled:
		spec = internet.Spec{Seed: 2014, ASes: 600, Tier1s: 6, Transits: 60, CDNs: 6, Contents: 15, Prefixes: 5000}
		nClients = 4
	}

	tracePath, total, ts := buildTrace(t, spec)
	if out != "" && total < 1000000 {
		t.Fatalf("full-table spec generated %d prefixes, want ≥1M", total)
	}
	run := runFullTable(t, tracePath, total, nClients, deadline)

	rep := fullTableReport{
		Prefixes:      total,
		Clients:       nClients,
		Shards:        rib.ShardCount(0),
		TraceRecords:  ts.Records,
		TraceBytes:    ts.Bytes,
		IngestSecs:    run.IngestSecs,
		RoutesPerSec:  float64(total) / run.IngestSecs,
		ConvergeSecs:  run.ConvergeSecs,
		HeapBytes:     run.HeapBytes,
		HeapMB:        float64(run.HeapBytes) / (1 << 20),
		RelayedNLRIs:  run.RelayedNLRIs,
		FanoutUpdates: run.FanoutUpdates,
		Env:           benchenv.Capture(testStart),
	}
	t.Logf("%d prefixes × %d clients: ingested in %.2fs (%.0f routes/s), converged in %.2fs, heap %.1f MB",
		rep.Prefixes, rep.Clients, rep.IngestSecs, rep.RoutesPerSec, rep.ConvergeSecs, rep.HeapMB)

	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// fullTableScalingRow is one GOMAXPROCS setting's measurement in
// BENCH_fulltable_scaling.json.
type fullTableScalingRow struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	IngestSecs   float64 `json:"ingest_seconds"`
	RoutesPerSec float64 `json:"routes_per_sec_ingested"`
	ConvergeSecs float64 `json:"convergence_seconds"`
}

// TestFullTableScaling replays one trace through fresh muxes at
// GOMAXPROCS 1, 4, and the machine default, so the ingest-rate figure
// always comes with its parallelism curve. Plain `go test` runs a
// small sizing as a plumbing check; BENCH_FULLTABLE_SCALING_JSON (set
// by `make bench-fulltable`) switches to a mid-scale table and writes
// the rows as JSON. Skipped under -race: GOMAXPROCS=1 with the race
// detector's overhead measures the instrumentation, not the pipeline.
func TestFullTableScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("scaling curve is meaningless under the race detector")
	}
	testStart := time.Now()
	out := os.Getenv("BENCH_FULLTABLE_SCALING_JSON")
	spec := internet.Spec{Seed: 2014, ASes: 1200, Tier1s: 8, Transits: 100, CDNs: 8, Contents: 20, Prefixes: 12000}
	nClients, deadline := 4, 2*time.Minute
	if out != "" {
		spec = internet.Spec{Seed: 2014, ASes: 4000, Tier1s: 8, Transits: 300, CDNs: 15, Contents: 60, Prefixes: 150000}
		nClients, deadline = 16, 10*time.Minute
	}
	tracePath, total, _ := buildTrace(t, spec)

	defaultProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(defaultProcs)
	procSettings := []int{1, 4, defaultProcs}
	var rows []fullTableScalingRow
	seen := map[int]bool{}
	for _, procs := range procSettings {
		if seen[procs] {
			continue
		}
		seen[procs] = true
		runtime.GOMAXPROCS(procs)
		run := runFullTable(t, tracePath, total, nClients, deadline)
		runtime.GOMAXPROCS(defaultProcs)
		row := fullTableScalingRow{
			GOMAXPROCS:   procs,
			IngestSecs:   run.IngestSecs,
			RoutesPerSec: float64(total) / run.IngestSecs,
			ConvergeSecs: run.ConvergeSecs,
		}
		rows = append(rows, row)
		t.Logf("GOMAXPROCS=%d: ingested %d prefixes in %.2fs (%.0f routes/s), converged in %.2fs",
			procs, total, row.IngestSecs, row.RoutesPerSec, row.ConvergeSecs)
	}

	if out != "" {
		b, err := json.MarshalIndent(map[string]any{
			"prefixes": total,
			"clients":  nClients,
			"shards":   rib.ShardCount(0),
			"rows":     rows,
			"env":      benchenv.Capture(testStart),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// waitCount polls n() until it reaches want, returning the seconds
// elapsed since start. A count that overshoots want is a bug (routes
// duplicated somewhere in the pipeline), not a convergence signal.
func waitCount(t *testing.T, deadline time.Duration, start time.Time, what string, n func() int, want int) float64 {
	t.Helper()
	for limit := time.Now().Add(deadline); ; {
		got := n()
		if got == want {
			return time.Since(start).Seconds()
		}
		if got > want {
			t.Fatalf("%s holds %d routes, want exactly %d", what, got, want)
		}
		if time.Now().After(limit) {
			t.Fatalf("timeout: %s at %d/%d routes after %v", what, got, want, deadline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
