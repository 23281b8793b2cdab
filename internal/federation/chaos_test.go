package federation

// Deterministic fault injection on the virtual clock: a backhaul
// partition must fail traffic over to the surviving muxes and heal
// without route loss, and the periodic L2 flaps of a remote-peering
// attachment must never cost a session. Everything — hold timers,
// redial backoff, flap schedule, link latency — runs on clock.Virtual,
// so every run replays identically.

import (
	"sync/atomic"
	"testing"
	"time"

	"peering/internal/bgp"
	"peering/internal/client"
	"peering/internal/clock"
	"peering/internal/ixp"
	"peering/internal/muxproto"
	"peering/internal/server"
	"peering/internal/telemetry"
	"peering/internal/wire"
)

// chaosTestServer is newTestServer plus a generous restart window, so
// routes from a partitioned backhaul session are retained stale for
// the whole scenario instead of expiring mid-test.
func chaosTestServer(t *testing.T, site string, idx int, clk *clock.Virtual) *server.Server {
	t.Helper()
	srv := server.New(server.Config{
		Site:          site,
		ASN:           testbedASN,
		RouterID:      addr("184.164.224." + string(rune('1'+idx))),
		Mode:          muxproto.ModeQuagga,
		Clock:         clk,
		Dampening:     relaxedDampening(),
		Reconnect:     bgp.Backoff{Initial: time.Second, Max: 8 * time.Second, Factor: 2},
		RestartWindow: 30 * time.Minute,
	})
	t.Cleanup(srv.Close)
	return srv
}

// waitForV polls cond, advancing the virtual clock by step each
// iteration so timers (keepalives, hold, backoff, flaps, link latency)
// make progress. The real-time deadline only bounds runaway tests; the
// scenario itself is clock-deterministic.
func waitForV(t testing.TB, clk *clock.Virtual, what string, step time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		clk.Advance(step)
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// mirrorOf finds the mirrored upstream registered at member `at` for a
// peer really attached at member `via`.
func mirrorOf(t *testing.T, m *Mesh, at, via string) *fedUpstream {
	t.Helper()
	mem := m.memberByName(at)
	if mem == nil {
		t.Fatalf("no member %s", at)
	}
	for _, fu := range mem.feds {
		if fu.via.name == via {
			return fu
		}
	}
	t.Fatalf("no mirror of %s at %s", via, at)
	return nil
}

// TestChaosFederationFailover partitions the amsterdam–phoenix backhaul
// under a client attached at amsterdam. The client must keep phoenix's
// routes (retained stale — zero withdrawals cross its session), keep
// announcing through seattle's peer while phoenix is unreachable (the
// failover path), and after the heal reconverge on a table attribute
// for attribute identical to the pre-partition one.
func TestChaosFederationFailover(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	ams := chaosTestServer(t, "amsterdam01", 0, clk)
	phx := chaosTestServer(t, "phoenix01", 1, clk)
	sea := chaosTestServer(t, "seattle01", 2, clk)

	phxSpec, seaSpec := spec(1, 1239, 1), spec(1, 6939, 2)
	phxUp := attachPeer(t, phx, phxSpec, clk)
	seaUp := attachPeer(t, sea, seaSpec, clk)
	nPhx := announceFrom(phxUp, 1)
	announceFrom(seaUp, 2)

	reg := telemetry.NewRegistry()
	mesh := newTestMesh(t, clk, reg,
		Member{Server: ams, RouterID: addr("184.164.224.1"), Site: physicalSite("amsterdam01")},
		Member{Server: phx, RouterID: addr("184.164.224.2"), Site: physicalSite("phoenix01")},
		Member{Server: sea, RouterID: addr("184.164.224.3"), Site: physicalSite("seattle01")},
	)

	cl := connectTestClient(t, ams, clk, "alice", addr("10.250.0.1"), prefix("184.164.224.0/24"))
	phxID := fedIDBase(1) + 1
	seaID := fedIDBase(2) + 1

	// Count withdrawals the client hears for phoenix's mirror: route
	// loss during partition/heal would show up here first.
	var phxWithdrawn atomic.Uint64
	cl.OnRoute(func(uid uint32, upd *wire.Update) {
		if uid == phxID {
			phxWithdrawn.Add(uint64(len(upd.Withdrawn)))
		}
	})

	waitForV(t, clk, "initial cross-mux convergence", 100*time.Millisecond, func() bool {
		return cl.RouteCount(phxID) == nPhx && cl.RouteCount(seaID) > 0
	})
	before := clientTable(t, cl, phxID)

	// Partition amsterdam–phoenix and let the hold timers kill both
	// sides of the backhaul sessions.
	if err := mesh.PartitionLink("amsterdam01", "phoenix01"); err != nil {
		t.Fatal(err)
	}
	fu := mirrorOf(t, mesh, "amsterdam01", "phoenix01")
	waitForV(t, clk, "backhaul session death by hold timer", time.Second, func() bool {
		return !fu.u.Established()
	})

	// Stale retention: the client still holds every phoenix route and
	// heard no withdrawals.
	if got := cl.RouteCount(phxID); got != nPhx {
		t.Fatalf("during partition: client holds %d phoenix routes, want %d (stale retention)", got, nPhx)
	}
	if n := phxWithdrawn.Load(); n != 0 {
		t.Fatalf("during partition: client heard %d withdrawals for phoenix's mirror, want 0", n)
	}

	// Failover: with phoenix unreachable, announcing through seattle's
	// peer still works end to end.
	if err := cl.Announce(prefix("184.164.224.0/24"), client.AnnounceOptions{Upstreams: []uint32{seaID}}); err != nil {
		t.Fatal(err)
	}
	waitForV(t, clk, "announcement fails over to seattle's peer", 200*time.Millisecond, func() bool {
		return len(routerInTable(t, seaUp, seaSpec.localAddr)) == 1
	})

	// Heal: the supervisor redials over the restored link, the serving
	// agent replays its table plus end-of-RIB, and the client ends up
	// on the exact pre-partition table.
	if err := mesh.HealLink("amsterdam01", "phoenix01"); err != nil {
		t.Fatal(err)
	}
	waitForV(t, clk, "backhaul reconvergence after heal", time.Second, func() bool {
		// The stale table already matches; end-of-RIB closing the second
		// convergence measurement is what proves the replay completed.
		return fu.u.Established() && cl.RouteCount(phxID) == nPhx &&
			mesh.metrics.convergence.With("amsterdam01", "phoenix01").Count() >= 2
	})
	diffTables(t, "phoenix table after heal", clientTable(t, cl, phxID), before)
	if n := phxWithdrawn.Load(); n != 0 {
		t.Fatalf("after heal: client heard %d withdrawals for phoenix's mirror, want 0", n)
	}

	met := mesh.metrics
	if got := met.partitions.Value(); got != 1 {
		t.Errorf("partitions_total = %d, want 1", got)
	}
	if got := met.heals.Value(); got != 1 {
		t.Errorf("heals_total = %d, want 1", got)
	}
	if got := met.convergence.With("amsterdam01", "phoenix01").Count(); got < 2 {
		t.Errorf("convergence histogram has %d samples for amsterdam01<-phoenix01, want >= 2 (initial + post-heal)", got)
	}
}

// TestChaosFederationRemoteFlap drives the virtual clock through a
// remote-peering link's flap cycle: the provider's virtual L2 stalls
// the backhaul for FlapDuration, and every session must ride it out —
// flaps delay frames, they do not lose them.
func TestChaosFederationRemoteFlap(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	ams := chaosTestServer(t, "amsterdam01", 0, clk)
	sea := chaosTestServer(t, "seattle01", 1, clk)
	seaSpec := spec(1, 6939, 1)
	seaUp := attachPeer(t, sea, seaSpec, clk)
	nSea := announceFrom(seaUp, 2)

	reg := telemetry.NewRegistry()
	mesh := newTestMesh(t, clk, reg,
		Member{Server: ams, RouterID: addr("184.164.224.1"), Site: physicalSite("amsterdam01")},
		Member{Server: sea, RouterID: addr("184.164.224.2"), Site: ixpRemoteSeattle()},
	)

	cl := connectTestClient(t, ams, clk, "alice", addr("10.250.0.1"), prefix("184.164.224.0/24"))
	seaID := fedIDBase(1) + 1
	waitForV(t, clk, "initial convergence over the remote link", 100*time.Millisecond, func() bool {
		return cl.RouteCount(seaID) == nSea
	})
	fu := mirrorOf(t, mesh, "amsterdam01", "seattle01")
	estBefore := fu.u.Established()
	if !estBefore {
		t.Fatal("mirror session not established before the flap window")
	}

	// The remote profile flaps on the order of hours; march the clock
	// to the first flap in steps of half the keepalive interval (30 s,
	// a third of bgp.DefaultHoldTime). Each step leaves only 0.5 ms of
	// real time for the messages it made due, and seattle's upstream is
	// not supervised: a hold timer that fires before the keepalive
	// meant to reset it is read ends that session for good. At 15 s a
	// keepalive has four steps to be read before that deadline; at 45 s
	// it had one, which a -race build often missed.
	waitForV(t, clk, "a remote L2 flap", 15*time.Second, func() bool {
		return mesh.metrics.flaps.Value() >= 1
	})
	// Let the flap heal and the delayed frames drain.
	waitForV(t, clk, "session survives the flap", time.Second, func() bool {
		return fu.u.Established() && cl.RouteCount(seaID) == nSea
	})
	if got := mesh.metrics.partitions.Value(); got != 0 {
		t.Errorf("partitions_total = %d, want 0 (flaps are stalls, not partitions)", got)
	}
	st := mesh.Status()
	if st.Links[0].Flaps < 1 {
		t.Errorf("link flaps = %d, want >= 1", st.Links[0].Flaps)
	}
}

func ixpRemoteSeattle() ixp.Site {
	return ixp.Site{Name: "seattle01", Kind: ixp.SiteRemote, Provider: "hibernia"}
}
