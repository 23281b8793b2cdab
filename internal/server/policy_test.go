package server

// Compiled safety-filter integration: the policy engine interposed on
// both directions of the mux. Upstream ingest rejections must die
// before the Adj-RIB-In (never reaching a client queue), client
// announcements with leaked paths must die before the vet pipeline
// relays them, reloads mid-churn must give every route exactly one
// verdict, and the chaos scenario replays a full MRT trace with
// injected hijacks and leaks against a fault-free control.

import (
	"bytes"
	"fmt"
	"maps"
	"net/netip"
	"testing"
	"time"

	"peering/internal/client"
	"peering/internal/clock"
	"peering/internal/mrt"
	"peering/internal/policy/compiled"
	"peering/internal/router"
	"peering/internal/wire"
)

// testPolicy is the canonical rule set the integration tests load: the
// testbed's own space is denied from upstreams, one /16 carries ROAs,
// AS 174 is Peerlock-protected, and 3356/6453 never appear via
// non-transit neighbors (Peerlock-lite).
func testPolicy() *compiled.RuleSet {
	return &compiled.RuleSet{
		Prefixes: []compiled.PrefixRule{
			{Prefix: prefix("184.164.224.0/19"), Le: 32},
		},
		Origins: []compiled.OriginRule{
			{Prefix: prefix("99.99.0.0/16"), MaxLen: 24, Origin: 65001},
		},
		Peerlock:  []compiled.PeerlockRule{{Protected: 174, Allowed: []uint32{3356, 2914}}},
		NoTransit: []uint32{6453},
	}
}

// rejectCount reads one rule class's reject counter.
func rejectCount(srv *Server, c compiled.Class) uint64 {
	return srv.metrics.policyRejected[c].Value()
}

// TestPolicyFiltersUpstreamIngest loads the filter, has the (non-
// transit) upstream announce one route per rule family plus two clean
// ones, and verifies rejections die pre-RIB: the Adj-RIB-In and the
// client's table hold exactly the accepted routes, and every rejection
// lands on its class counter.
func TestPolicyFiltersUpstreamIngest(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	srv := chaosServer(t, clk, QuotaConfig{})
	srv.LoadPolicy(testPolicy())
	up, u := attachChaosUpstream(t, srv, clk)
	cl := connectChaosClient(t, srv, clk, "exp1", addr("10.250.0.1"), prefix("184.164.224.0/24"))

	good1, good2 := prefix("96.0.0.0/24"), prefix("99.99.2.0/24")
	up.Announce(good1, router.AnnounceSpec{})                            // accept
	up.Announce(good2, router.AnnounceSpec{OriginASNs: []uint32{65001}}) // ROA-valid: origin 65001
	up.Announce(prefix("184.164.225.0/24"), router.AnnounceSpec{})       // prefix: testbed space from an upstream
	up.Announce(prefix("99.99.1.0/24"), router.AnnounceSpec{})           // origin: covered by ROA, origin 3356
	up.Announce(prefix("96.0.1.0/24"), router.AnnounceSpec{Poison: []uint32{174, 64999}})
	// peerlock: 174 adjacent to 64999 ^
	up.Announce(prefix("96.0.2.0/24"), router.AnnounceSpec{Poison: []uint32{6453}})
	// peerlock-lite: 6453 via the non-transit upstream ^

	waitFor(t, "accepted routes and rejection accounting", func() bool {
		st := srv.Stats()
		return cl.RouteCount(1) == 2 && st.PolicyAccepted == 2 && st.PolicyRejected == 4
	})
	table := adjInOf(t, u)
	if len(table) != 2 {
		t.Fatalf("Adj-RIB-In holds %d routes, want 2 (rejections must die pre-RIB)", len(table))
	}
	for _, p := range []netip.Prefix{good1, good2} {
		if _, ok := table[p]; !ok {
			t.Fatalf("accepted route %v missing from Adj-RIB-In", p)
		}
	}
	if got := tableOf(t, cl.Routes(1)); !maps.Equal(got, table) {
		t.Fatalf("client table diverged from Adj-RIB-In: %d vs %d prefixes", len(got), len(table))
	}
	for class, want := range map[compiled.Class]uint64{
		compiled.ClassPrefix:       1,
		compiled.ClassOrigin:       1,
		compiled.ClassPeerlock:     1,
		compiled.ClassPeerlockLite: 1,
	} {
		if got := rejectCount(srv, class); got != want {
			t.Errorf("%s rejections = %d, want %d", class, got, want)
		}
	}
}

// TestPolicyClientLeakBlocked: the client direction. A client that
// announces its own allocation with a path carrying a no-transit AS —
// the classic "leaked my provider's route to my other provider" shape —
// is rejected by the path verdict before the vet pipeline relays it,
// and counted as the leak it is; the same prefix with a clean path
// still flows.
func TestPolicyClientLeakBlocked(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	srv := chaosServer(t, clk, QuotaConfig{})
	srv.LoadPolicy(testPolicy())
	up, _ := attachChaosUpstream(t, srv, clk)
	alloc := prefix("184.164.224.0/24")
	cl := connectChaosClient(t, srv, clk, "exp1", addr("10.250.0.1"), alloc)

	// Leak: the path claims the route passed through no-transit AS 6453.
	if err := cl.Announce(alloc, client.AnnounceOptions{Poison: []uint32{6453}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "leak counted", func() bool {
		return rejectCount(srv, compiled.ClassPeerlockLite) == 1
	})
	if up.LocRIB().Best(alloc) != nil {
		t.Fatal("leaked announcement escaped to the upstream")
	}

	// Clean re-announcement of the same prefix: accepted and relayed.
	if err := cl.Announce(alloc, client.AnnounceOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "clean announcement relayed", func() bool {
		return up.LocRIB().Best(alloc) != nil
	})
	if got := srv.Stats().PolicyRejected; got != 1 {
		t.Fatalf("policy rejections = %d after clean announce, want 1", got)
	}
}

// TestPolicyReloadUnderChurn swaps filters A↔B while the upstream
// announces a stream of routes, then asserts the reload atomicity
// invariant: every announced NLRI got exactly one verdict from one
// coherent filter (accepted + rejected == announced, and the
// Adj-RIB-In holds exactly the accepted routes), and a final deny-all
// filter governs everything announced after it.
func TestPolicyReloadUnderChurn(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	srv := chaosServer(t, clk, QuotaConfig{})
	filterA := &compiled.RuleSet{Prefixes: []compiled.PrefixRule{{Prefix: prefix("97.0.0.0/8"), Le: 32}}}
	filterB := &compiled.RuleSet{Prefixes: []compiled.PrefixRule{{Prefix: prefix("98.0.0.0/8"), Le: 32}}}
	srv.LoadPolicy(filterA)
	up, u := attachChaosUpstream(t, srv, clk)

	// 300 routes across 96/8 (accepted by both filters), 97/8 (denied by
	// A) and 98/8 (denied by B), announced while the main goroutine
	// reloads A↔B as fast as the engine swaps.
	const n = 300
	churnPfx := func(i int) netip.Prefix {
		return prefix(fmt.Sprintf("%d.%d.%d.0/24", 96+i%3, i/250, i%250))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			up.Announce(churnPfx(i), router.AnnounceSpec{MED: uint32(i), MEDSet: true})
		}
	}()
	reloads := 0
	for announcing := true; announcing; reloads++ {
		select {
		case <-done:
			announcing = false
		default:
		}
		if reloads%2 == 0 {
			srv.LoadPolicy(filterB)
		} else {
			srv.LoadPolicy(filterA)
		}
	}
	t.Logf("swapped filters %d times during the churn", reloads)

	waitFor(t, "every route verdicted exactly once", func() bool {
		st := srv.Stats()
		return st.PolicyAccepted+st.PolicyRejected == n
	})
	srv.ingest.barrier() // a verdict is counted before its route is installed
	st := srv.Stats()
	if table := adjInOf(t, u); uint64(len(table)) != st.PolicyAccepted {
		t.Fatalf("Adj-RIB-In holds %d routes but %d were accepted: a verdict was dropped or double-applied",
			len(table), st.PolicyAccepted)
	}
	// Every 96/8 route passes either filter; its presence is reload-
	// independent. 97/8 and 98/8 split between the filters, so only the
	// sum is deterministic — which is exactly the invariant.
	table := adjInOf(t, u)
	for i := 0; i < n; i += 3 {
		if _, ok := table[churnPfx(i)]; !ok {
			t.Fatalf("route %v is accepted by both filters but missing", churnPfx(i))
		}
	}

	// A final deny-all filter governs everything after it.
	srv.LoadPolicy(&compiled.RuleSet{DefaultDeny: true})
	for i := 0; i < 50; i++ {
		up.Announce(prefix(fmt.Sprintf("100.0.%d.0/24", i)), router.AnnounceSpec{})
	}
	waitFor(t, "deny-all filter blocks the tail", func() bool {
		return srv.Stats().PolicyRejected == st.PolicyRejected+50
	})
	if got := srv.Stats().PolicyAccepted; got != st.PolicyAccepted {
		t.Fatalf("accepts moved under deny-all: %d -> %d", st.PolicyAccepted, got)
	}
}

// ---------------------------------------------------------------------
// Chaos scenario: hijack and leak injection under full-trace replay

// attackTrace builds two MRT traces from the same legitimate schedule:
// the control trace, and the chaos trace with hijacks, leaks, and
// poisoned paths interleaved between the legitimate records. Returns
// (legit, attacked, legitimate announced NLRIs, rejects per class).
func attackTrace(t *testing.T) (legit, attacked []byte, legitRoutes int, injected map[compiled.Class]int) {
	t.Helper()
	var ctl, atk bytes.Buffer
	wCtl, wAtk := mrt.NewWriter(&ctl, nil), mrt.NewWriter(&atk, nil)
	ts := time.Unix(1_700_000_000, 0).UTC()
	injected = make(map[compiled.Class]int)

	write := func(w *mrt.Writer, upd *wire.Update) {
		t.Helper()
		m := &mrt.BGP4MP{
			PeerAS: 3356, LocalAS: testbedASN,
			PeerIP: addr("80.249.208.10"), LocalIP: addr("80.249.208.1"),
			Message: func() []byte {
				b, err := wire.Marshal(upd, wire.Options{AS4: true})
				if err != nil {
					t.Fatal(err)
				}
				return b
			}(),
			AS4: true,
		}
		rec, err := m.Record(ts, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
		ts = ts.Add(time.Second)
	}
	both := func(upd *wire.Update) { write(wCtl, upd); write(wAtk, upd) }
	attack := func(class compiled.Class, upd *wire.Update) {
		write(wAtk, upd)
		injected[class]++
	}
	announce := func(p netip.Prefix, med uint32, path ...uint32) *wire.Update {
		return &wire.Update{
			Attrs: &wire.Attrs{
				Origin:  wire.OriginIGP,
				ASPath:  []wire.Segment{{Type: wire.SegSequence, ASNs: path}},
				NextHop: addr("80.249.208.10"),
				MED:     med, HasMED: med != 0,
			},
			Reach: []wire.NLRI{{Prefix: p}},
		}
	}

	// Legitimate schedule: 30 routes on clean paths, some churn (a MED
	// change and a withdraw/re-announce), and two ROA-valid routes.
	for i := 0; i < 30; i++ {
		both(announce(prefix(fmt.Sprintf("96.0.%d.0/24", i)), 0, 3356, 174, 2914, uint32(64500+i)))
		legitRoutes++
	}
	both(announce(prefix("99.99.10.0/24"), 0, 3356, 65001))
	both(announce(prefix("99.99.11.0/24"), 0, 3356, 2914, 65001))
	legitRoutes += 2

	// Injections, spread through more legitimate churn below:
	// origin hijacks — ROA-covered space from the wrong origin, and a
	// too-long more-specific from the right one.
	attack(compiled.ClassOrigin, announce(prefix("99.99.50.0/24"), 0, 3356, 64666))
	attack(compiled.ClassOrigin, announce(prefix("99.99.51.0/24"), 0, 3356, 2914, 64666))
	attack(compiled.ClassOrigin, announce(prefix("99.99.52.0/25"), 0, 3356, 65001)) // maxlen 24 < 25
	// prefix violations — testbed space announced by an upstream.
	attack(compiled.ClassPrefix, announce(prefix("184.164.230.0/24"), 0, 3356, 64777))
	attack(compiled.ClassPrefix, announce(prefix("184.164.224.0/19"), 0, 3356, 64777))
	// Peerlock leaks — protected AS 174 adjacent to strangers, including
	// a poisoned sandwich that keeps a legitimate-looking tail.
	attack(compiled.ClassPeerlock, announce(prefix("96.50.0.0/24"), 0, 3356, 64888, 174))
	attack(compiled.ClassPeerlock, announce(prefix("96.50.1.0/24"), 0, 3356, 174, 64999, 174, 2914, 64500))
	// Peerlock-lite leaks — no-transit AS 6453 via the non-transit peer.
	attack(compiled.ClassPeerlockLite, announce(prefix("96.60.0.0/24"), 0, 3356, 6453, 64500))
	attack(compiled.ClassPeerlockLite, announce(prefix("96.60.1.0/24"), 0, 3356, 2914, 6453))

	// Legitimate churn after the attacks: a MED change (same prefix,
	// fresh attributes) and a withdraw — withdrawals always pass.
	both(announce(prefix("96.0.0.0/24"), 77, 3356, 174, 2914, 64500))
	legitRoutes++
	both(&wire.Update{Withdrawn: []wire.NLRI{{Prefix: prefix("96.0.1.0/24")}}})

	return ctl.Bytes(), atk.Bytes(), legitRoutes, injected
}

// TestChaosHijackLeakFiltered is the acceptance scenario: a full MRT
// replay with injected origin hijacks, Peerlock-violating leaks, path
// poisoning, and prefix thefts. Every injected route must be blocked
// and counted by rule class, while the legitimate churn converges
// attribute-for-attribute with a fault-free control rig replaying the
// attack-free trace.
func TestChaosHijackLeakFiltered(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	legit, attacked, legitRoutes, injected := attackTrace(t)

	// Control: no attacks on the wire, no filter loaded.
	ctl := chaosServer(t, clk, QuotaConfig{})
	ctlUp, err := ctl.AddUpstream(chaosUpstreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctlCl := connectChaosClient(t, ctl, clk, "ctl", addr("10.250.1.1"), prefix("184.164.224.0/24"))
	ctlStats, ctlSess, err := ctl.ReplayUpstream(ctlUp, mrt.NewReader(bytes.NewReader(legit)), mrt.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctlSess.Close()

	// Chaos: the attacked trace through the compiled filter.
	srv := chaosServer(t, clk, QuotaConfig{})
	srv.LoadPolicy(testPolicy())
	u, err := srv.AddUpstream(chaosUpstreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl := connectChaosClient(t, srv, clk, "exp1", addr("10.250.0.1"), prefix("184.164.225.0/24"))
	atkStats, atkSess, err := srv.ReplayUpstream(u, mrt.NewReader(bytes.NewReader(attacked)), mrt.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer atkSess.Close()

	totalInjected := 0
	for _, n := range injected {
		totalInjected += n
	}
	if atkStats.Routes != ctlStats.Routes+totalInjected {
		t.Fatalf("attack trace carried %d routes, control %d + %d injected", atkStats.Routes, ctlStats.Routes, totalInjected)
	}

	// 100%% of the injections blocked, each on its own class counter,
	// and every legitimate route accepted.
	waitFor(t, "every injected route blocked and counted", func() bool {
		st := srv.Stats()
		return st.PolicyRejected == uint64(totalInjected) && st.PolicyAccepted == uint64(legitRoutes)
	})
	for class, want := range injected {
		if got := rejectCount(srv, class); got != uint64(want) {
			t.Errorf("%s rejections = %d, want %d", class, got, want)
		}
	}

	// The legitimate churn converged attribute-for-attribute with the
	// fault-free control — on the client table and the Adj-RIB-In both.
	waitFor(t, "control and chaos client convergence", func() bool {
		n := len(tableOf(t, ctlCl.Routes(1)))
		return n > 0 && len(tableOf(t, cl.Routes(1))) == n
	})
	want := tableOf(t, ctlCl.Routes(1))
	if got := tableOf(t, cl.Routes(1)); !maps.Equal(got, want) {
		t.Fatalf("filtered client diverged from fault-free control: %d vs %d prefixes", len(got), len(want))
	}
	if got := adjInOf(t, u); !maps.Equal(got, adjInOf(t, ctlUp)) {
		t.Fatal("filtered Adj-RIB-In diverged from fault-free control")
	}
	// And nothing the attacker sent is anywhere in the filtered world.
	table := adjInOf(t, u)
	for _, p := range []netip.Prefix{
		prefix("99.99.50.0/24"), prefix("99.99.51.0/24"), prefix("99.99.52.0/25"),
		prefix("184.164.230.0/24"), prefix("184.164.224.0/19"),
		prefix("96.50.0.0/24"), prefix("96.50.1.0/24"),
		prefix("96.60.0.0/24"), prefix("96.60.1.0/24"),
	} {
		if _, ok := table[p]; ok {
			t.Errorf("injected route %v reached the Adj-RIB-In", p)
		}
	}
}
