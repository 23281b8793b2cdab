package compiled

// Verdict-path cost accounting. TestVerdictZeroAlloc is the enforced
// budget — the compiled filter may not allocate on the steady-state
// verdict path, because it runs per-NLRI inside the ingest workers
// whose own budget (TestRelayHotPathAllocs) is enforced in make check.
// TestPolicyBenchmark measures verdicts/sec over a full-table-shaped
// rule set and, when BENCH_POLICY_JSON names a path, writes the
// committed artifact.

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"testing"
	"time"

	"peering/internal/benchenv"
	"peering/internal/wire"
)

// benchPrefix is the /24 a.b.c.0 or, for IPv6, the /40 2001:ab:c00::
// — the same table shape under 2001::/16.
func benchPrefix(v6 bool, a, b, c byte) netip.Prefix {
	if v6 {
		return netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, a, b, c}), 40)
	}
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{a, b, c, 0}), 24)
}

// benchFilter compiles a rule set shaped like a production deployment:
// a prefix-ownership table, an ROA table covering part of the space,
// and a handful of adjacency rules, all in one family.
func benchFilter(nPrefix, nROA int, v6 bool) *Filter {
	host := 32
	if v6 {
		host = 128
	}
	rs := &RuleSet{
		Peerlock: []PeerlockRule{
			{Protected: 174, Allowed: []uint32{3356, 2914, 1299}},
			{Protected: 3356, Allowed: []uint32{174, 2914, 1299, 3257}},
		},
		NoTransit: []uint32{6453, 6762},
	}
	for i := 0; i < nPrefix; i++ {
		rs.Prefixes = append(rs.Prefixes, PrefixRule{
			Prefix: benchPrefix(v6, byte(20+i%60), byte(i>>8), byte(i)),
			Le:     host, Permit: i%16 != 0,
		})
	}
	for i := 0; i < nROA; i++ {
		rs.Origins = append(rs.Origins, OriginRule{
			Prefix: benchPrefix(v6, byte(96+i%8), byte(i>>8), byte(i)),
			MaxLen: host, Origin: uint32(64500 + i%1000),
		})
	}
	return Compile(rs)
}

// benchRoutes builds interned attribute sets and prefixes that hit
// every rule family: some covered by ROAs, some by prefix rules, some
// by neither.
func benchRoutes(n int, v6 bool) ([]netip.Prefix, []*wire.Attrs) {
	intern := wire.NewInternTable()
	prefixes := make([]netip.Prefix, n)
	attrs := make([]*wire.Attrs, n)
	for i := range prefixes {
		first := byte(20 + i%90) // spans rule space, ROA space, and uncovered space
		prefixes[i] = benchPrefix(v6, first, byte(i>>8), byte(i))
		attrs[i] = intern.Intern(&wire.Attrs{
			Origin: wire.OriginIGP,
			ASPath: []wire.Segment{{Type: wire.SegSequence,
				ASNs: []uint32{3356, 174, 2914, uint32(64500 + i%1000)}}},
			NextHop: netip.MustParseAddr("10.0.0.1"),
		})
	}
	return prefixes, attrs
}

func TestVerdictZeroAlloc(t *testing.T) {
	for _, v6 := range []bool{false, true} {
		f := benchFilter(4096, 1024, v6)
		prefixes, attrs := benchRoutes(512, v6)
		peer := Peer{AS: 3356, Transit: true}
		// Warm the path memo: the first verdict per attribute set stores a
		// facts entry, exactly once per interned pointer per filter.
		for i := range prefixes {
			f.Verdict(prefixes[i], attrs[i], peer)
		}
		if a := testing.AllocsPerRun(100, func() {
			for i := range prefixes {
				f.Verdict(prefixes[i], attrs[i], peer)
			}
		}); a != 0 {
			t.Fatalf("steady-state verdict path (IPv6 %v) allocates %v per run of %d verdicts, want 0", v6, a, len(prefixes))
		}
	}
}

func BenchmarkVerdict(b *testing.B) {
	for _, v6 := range []bool{false, true} {
		b.Run(map[bool]string{false: "ipv4", true: "ipv6"}[v6], func(b *testing.B) {
			f := benchFilter(4096, 1024, v6)
			prefixes, attrs := benchRoutes(512, v6)
			peer := Peer{AS: 3356, Transit: true}
			for i := range prefixes {
				f.Verdict(prefixes[i], attrs[i], peer)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(prefixes)
				f.Verdict(prefixes[j], attrs[j], peer)
			}
		})
	}
}

func TestPolicyBenchmark(t *testing.T) {
	const nPrefix, nROA, nRoutes = 16384, 8192, 4096
	testStart := time.Now()
	rounds := 200
	if testing.Short() {
		rounds = 5
	}
	start := time.Now()
	f := benchFilter(nPrefix, nROA, false)
	compile := time.Since(start)
	prefixes, attrs := benchRoutes(nRoutes, false)
	peer := Peer{AS: 3356, Transit: true}
	accepted := 0
	for i := range prefixes { // memo warm-up, uncounted
		f.Verdict(prefixes[i], attrs[i], peer)
	}
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for i := range prefixes {
			if f.Verdict(prefixes[i], attrs[i], peer).Accept {
				accepted++
			}
		}
	}
	elapsed := time.Since(start)
	total := rounds * nRoutes
	perSec := float64(total) / elapsed.Seconds()
	t.Logf("compile: %d prefix + %d roa + peerlock in %v", nPrefix, nROA, compile)
	t.Logf("verdicts: %d in %v = %.0f/sec (%.1f%% accepted)",
		total, elapsed, perSec, 100*float64(accepted)/float64(total))

	if path := os.Getenv("BENCH_POLICY_JSON"); path != "" {
		out, err := json.MarshalIndent(map[string]any{
			"scenario": map[string]int{
				"prefix_rules": nPrefix, "origin_rules": nROA,
				"peerlock_rules": 2, "no_transit_ases": 2,
				"routes": nRoutes, "rounds": rounds,
			},
			"op":               "one Verdict (prefix + peerlock + peerlock-lite + origin), memo warm",
			"compile_seconds":  compile.Seconds(),
			"verdicts_per_sec": perSec,
			"ns_per_verdict":   float64(elapsed.Nanoseconds()) / float64(total),
			"allocs_per_verdict": fmt.Sprintf("0 (enforced by TestVerdictZeroAlloc; %d routes, every rule family exercised)",
				nRoutes),
			"env": benchenv.Capture(testStart),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
}
