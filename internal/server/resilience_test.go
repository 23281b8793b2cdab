package server

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peering/internal/bgp"
	"peering/internal/bufconn"
	"peering/internal/client"
	"peering/internal/clock"
	"peering/internal/dampen"
	"peering/internal/faultconn"
	"peering/internal/muxproto"
	"peering/internal/rib"
	"peering/internal/router"
	"peering/internal/wire"
)

// Chaos tests: scripted faults on the transports, virtual-clock timing,
// and assertions that the graceful-restart machinery keeps the world
// stable while sessions die and come back.

// advanceChunked moves the virtual clock forward in small steps with a
// real-time yield between them. Timer callbacks (keepalive sends, hold
// expiry) run synchronously inside Advance, but message RECEIPT is
// processed by reader goroutines: a single large jump would hold-expire
// healthy sessions whose keepalives were sent but never consumed. Steps
// well under the keepalive interval (hold/3 = 30s) plus a yield let
// healthy sessions refresh while partitioned ones still time out.
func advanceChunked(clk *clock.Virtual, total time.Duration) {
	const step = 5 * time.Second
	for total > 0 {
		d := step
		if total < step {
			d = total
		}
		clk.Advance(d)
		total -= d
		time.Sleep(2 * time.Millisecond)
	}
}

// relaxedDampening mirrors the production testbed tuning: scenarios
// that re-announce a prefix a few times in a row (restarts, reclaims,
// replays) would cross the textbook threshold of 2000 on the second
// flap of a (prefix, source, upstream) key.
func relaxedDampening() dampen.Config {
	cfg := dampen.DefaultConfig()
	cfg.SuppressThreshold = 6000
	cfg.ReuseThreshold = 3000
	return cfg
}

// clientByID finds a connected client in the registry (nil if absent).
func clientByID(s *Server, id string) *clientConn {
	for _, c := range s.clientList() {
		if c.account.ID == id {
			return c
		}
	}
	return nil
}

// clientSupFailures reads a client-session supervisor's consecutive
// failure count. Non-zero means the session died AND its redial timer is
// armed (both happen under one lock), so it is safe to Advance past the
// backoff delay.
func clientSupFailures(s *Server, id string, key uint32) int {
	c := clientByID(s, id)
	if c == nil {
		return 0
	}
	c.mu.Lock()
	sup := c.sups[key]
	c.mu.Unlock()
	if sup == nil {
		return 0
	}
	return sup.Stats().ConsecutiveFailures
}

// TestChaosTunnelPartitionAndHeal is the headline resilience scenario:
// the client's tunnel is silently partitioned (writes vanish, nothing
// errors) until every BGP session on it hold-expires, then healed so the
// supervisors' redials land. Required outcome: the client's per-peer
// views reconverge to exactly their pre-fault routes, the upstreams
// never see a withdrawal of the client's prefix — not even after the
// restart window closes — and dampening does not count the recovery as
// a flap. Every delay runs on the virtual clock.
func TestChaosTunnelPartitionAndHeal(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	srv := newCheckedServer(t, Config{
		Site:      "chaos01",
		ASN:       testbedASN,
		RouterID:  addr("184.164.224.1"),
		Mode:      muxproto.ModeQuagga,
		Clock:     clk,
		Dampening: relaxedDampening(),
		Reconnect: bgp.Backoff{Initial: time.Second, Max: 8 * time.Second, Factor: 2},
	})

	clientPfx := prefix("184.164.224.0/24")
	up1 := router.New(router.Config{AS: 3356, RouterID: addr("4.69.0.1"), Clock: clk})
	up2 := router.New(router.Config{AS: 2914, RouterID: addr("129.250.0.1"), Clock: clk})
	// Count withdrawals of the client prefix as seen by the real peers.
	// Registered before any session attaches, as OnBestChange requires.
	var wd1, wd2 atomic.Int64
	up1.OnBestChange(func(ch rib.Change) {
		if ch.Prefix == clientPfx && ch.New == nil {
			wd1.Add(1)
		}
	})
	up2.OnBestChange(func(ch rib.Change) {
		if ch.Prefix == clientPfx && ch.New == nil {
			wd2.Add(1)
		}
	})
	for i, up := range []*router.Router{up1, up2} {
		id := uint32(i + 1)
		peerAddr := addr(map[int]string{0: "80.249.208.10", 1: "80.249.208.20"}[i])
		localAddr := addr("80.249.208.1")
		u, err := srv.AddUpstream(UpstreamConfig{
			ID: id, Name: up.RouterID().String(), ASN: up.AS(),
			PeerAddr: peerAddr, LocalAddr: localAddr,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := up.AddPeer(router.PeerConfig{
			Addr: localAddr, LocalAddr: peerAddr, AS: testbedASN,
		})
		ca, cb := bufconn.Pipe()
		srv.AttachUpstream(u, ca)
		up.Attach(p, cb)
		waitFor(t, "upstream session", func() bool { return u.Established() })
	}
	up1.Announce(prefix("11.0.0.0/16"), router.AnnounceSpec{})
	up2.Announce(prefix("12.0.0.0/16"), router.AnnounceSpec{})

	// Client connects over a fault-injectable tunnel transport.
	if err := srv.RegisterClient(ClientAccount{
		ID: "exp1", Allocation: clientAlloc(), TunnelAddr: addr("10.250.0.1"),
	}); err != nil {
		t.Fatal(err)
	}
	fcSrv, fcCli := faultconn.Pipe(clk)
	if err := srv.AcceptClient("exp1", fcSrv); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Connect(client.Config{Name: "exp1", RouterID: addr("10.250.0.1"), Clock: clk}, fcCli)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	waitFor(t, "client sessions", func() bool { return cl.SessionCount() == 2 })

	if err := cl.Announce(clientPfx, client.AnnounceOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-fault convergence", func() bool {
		return up1.LocRIB().Best(clientPfx) != nil && up2.LocRIB().Best(clientPfx) != nil &&
			cl.RouteCount(1) == 1 && cl.RouteCount(2) == 1
	})
	base := srv.Stats()

	// --- Fault: silent bidirectional partition until hold expiry. ---
	// Sessions established at virtual t0, so hold deadlines sit at
	// t0+90s. Stop at +90.2s: past expiry, but short of the earliest
	// redial (death + 1s backoff), so no dial happens while partitioned.
	faultconn.PartitionBoth(fcSrv, fcCli)
	advanceChunked(clk, bgp.DefaultHoldTime+200*time.Millisecond)

	waitFor(t, "hold expiry and stale retention", func() bool {
		return srv.Stats().StaleRoutesRetained == base.StaleRoutesRetained+2 &&
			cl.SessionCount() == 0 &&
			clientSupFailures(srv, "exp1", 1) == 1 &&
			clientSupFailures(srv, "exp1", 2) == 1
	})
	// Mid-window: the world must not have noticed.
	if up1.LocRIB().Best(clientPfx) == nil || up2.LocRIB().Best(clientPfx) == nil {
		t.Fatal("client prefix withdrawn from an upstream during the restart window")
	}
	if n1, n2 := wd1.Load(), wd2.Load(); n1 != 0 || n2 != 0 {
		t.Fatalf("withdrawals propagated upstream during restart window: up1=%d up2=%d", n1, n2)
	}
	if cl.RouteCount(1) != 1 || cl.RouteCount(2) != 1 {
		t.Fatalf("client views lost routes during window: %d/%d", cl.RouteCount(1), cl.RouteCount(2))
	}

	// --- Heal, then let the redial timers (death + 1s) fire. ---
	faultconn.HealBoth(fcSrv, fcCli)
	clk.Advance(1500 * time.Millisecond)

	waitFor(t, "reconvergence after heal", func() bool {
		st := srv.Stats()
		return cl.SessionCount() == 2 &&
			st.SessionRecoveries == base.SessionRecoveries+2 &&
			cl.RouteCount(1) == 1 && cl.RouteCount(2) == 1
	})

	// --- Close the restart window: nothing stale remains, so the
	// backstop flush must find zero routes to withdraw. ---
	advanceChunked(clk, DefaultRestartWindow+10*time.Second)

	st := srv.Stats()
	if st.StaleRoutesFlushed != base.StaleRoutesFlushed {
		t.Fatalf("flushed %d stale routes; want 0 (everything was re-announced)",
			st.StaleRoutesFlushed-base.StaleRoutesFlushed)
	}
	if st.FlapsSuppressed != base.FlapsSuppressed {
		t.Fatalf("FlapsSuppressed rose %d -> %d across a graceful restart",
			base.FlapsSuppressed, st.FlapsSuppressed)
	}
	if st.ReconnectAttempts < base.ReconnectAttempts+2 {
		t.Fatalf("ReconnectAttempts = %d, want >= %d", st.ReconnectAttempts, base.ReconnectAttempts+2)
	}
	if up1.LocRIB().Best(clientPfx) == nil || up2.LocRIB().Best(clientPfx) == nil {
		t.Fatal("client prefix lost after restart window closed")
	}
	if n1, n2 := wd1.Load(), wd2.Load(); n1 != 0 || n2 != 0 {
		t.Fatalf("withdrawals reached upstreams: up1=%d up2=%d", n1, n2)
	}
	if cl.RouteCount(1) != 1 || cl.RouteCount(2) != 1 || cl.SessionCount() != 2 {
		t.Fatalf("client views did not reconverge: routes %d/%d, sessions %d",
			cl.RouteCount(1), cl.RouteCount(2), cl.SessionCount())
	}
}

// TestUpstreamRestartEndOfRIBFlush exercises the other direction: the
// peering with a real upstream drops mid-flight (EOF, no Cease). Its
// routes must be retained stale — no withdrawal storm toward clients —
// and when the supervisor's redial brings the session back, the peer's
// end-of-RIB must flush exactly the routes it did NOT re-announce.
func TestUpstreamRestartEndOfRIBFlush(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	srv := New(Config{
		Site:      "chaos02",
		ASN:       testbedASN,
		RouterID:  addr("184.164.224.1"),
		Mode:      muxproto.ModeQuagga,
		Clock:     clk,
		Dampening: relaxedDampening(),
		Reconnect: bgp.Backoff{Initial: time.Second, Max: 8 * time.Second, Factor: 2},
	})
	t.Cleanup(srv.Close)

	up := router.New(router.Config{AS: 3356, RouterID: addr("4.69.0.1"), Clock: clk})
	u, err := srv.AddUpstream(UpstreamConfig{
		ID: 1, Name: "up1", ASN: 3356,
		PeerAddr: addr("80.249.208.10"), LocalAddr: addr("80.249.208.1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := up.AddPeer(router.PeerConfig{
		Addr: addr("80.249.208.1"), LocalAddr: addr("80.249.208.10"), AS: testbedASN,
	})
	// Redialable transport: each dial hands the router a fresh pipe.
	var mu sync.Mutex
	var serverEnd net.Conn
	dial := func() (net.Conn, error) {
		ca, cb := bufconn.Pipe()
		mu.Lock()
		serverEnd = ca
		mu.Unlock()
		up.Attach(p, cb)
		return ca, nil
	}
	sup := srv.AttachUpstreamSupervised(u, dial)
	waitFor(t, "upstream session", func() bool { return u.Established() })

	up.Announce(prefix("11.0.0.0/16"), router.AnnounceSpec{})
	up.Announce(prefix("11.1.0.0/16"), router.AnnounceSpec{})

	clientPfx := prefix("184.164.224.0/24")
	if err := srv.RegisterClient(ClientAccount{
		ID: "exp1", Allocation: clientAlloc(), TunnelAddr: addr("10.250.0.1"),
	}); err != nil {
		t.Fatal(err)
	}
	ca, cb := bufconn.Pipe()
	if err := srv.AcceptClient("exp1", ca); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Connect(client.Config{Name: "exp1", RouterID: addr("10.250.0.1"), Clock: clk}, cb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	waitFor(t, "client routes", func() bool { return cl.RouteCount(1) == 2 })
	if err := cl.Announce(clientPfx, client.AnnounceOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "client prefix at upstream", func() bool { return up.LocRIB().Best(clientPfx) != nil })
	base := srv.Stats()

	// --- Fault: the transport dies abruptly. Both sides read EOF; no
	// NOTIFICATION is exchanged, so this is a blip, not a goodbye. ---
	mu.Lock()
	conn := serverEnd
	mu.Unlock()
	conn.Close()

	waitFor(t, "stale retention after upstream loss", func() bool {
		return srv.Stats().StaleRoutesRetained == base.StaleRoutesRetained+2 &&
			sup.Stats().ConsecutiveFailures == 1
	})
	// The client must still see both routes: stale, but not withdrawn.
	if cl.RouteCount(1) != 2 {
		t.Fatalf("client view shrank to %d routes during restart window", cl.RouteCount(1))
	}

	// While the peering is down, the peer stops originating one prefix.
	// Graceful restart exists exactly for this: the stale entry must be
	// flushed at end-of-RIB because the restarted peer won't replay it.
	up.Withdraw(prefix("11.1.0.0/16"))

	// Redial timer was armed at death (virtual now) + 1s backoff.
	clk.Advance(1100 * time.Millisecond)

	waitFor(t, "recovery and end-of-RIB flush", func() bool {
		st := srv.Stats()
		return u.Established() &&
			st.SessionRecoveries == base.SessionRecoveries+1 &&
			st.StaleRoutesFlushed == base.StaleRoutesFlushed+1 &&
			cl.RouteCount(1) == 1
	})
	if cl.RoutesFor(prefix("11.0.0.0/16"))[1] == nil {
		t.Fatal("re-announced prefix 11.0.0.0/16 missing from client view")
	}
	if cl.RoutesFor(prefix("11.1.0.0/16"))[1] != nil {
		t.Fatal("prefix 11.1.0.0/16 survived end-of-RIB despite not being re-announced")
	}
	// The server replayed the client's announcement to the recovered
	// peer (its router cleared everything on session loss).
	waitFor(t, "client prefix replayed to upstream", func() bool {
		return up.LocRIB().Best(clientPfx) != nil
	})
	if st := srv.Stats(); st.ReconnectAttempts < base.ReconnectAttempts+1 {
		t.Fatalf("ReconnectAttempts = %d, want >= %d", st.ReconnectAttempts, base.ReconnectAttempts+1)
	}
}

// TestClientTransportReconnectRetainsRoutes covers the whole-tunnel
// death on the system clock: the mux dies (laptop client loses
// connectivity), the server retains the client's announcements stale,
// and a fresh AcceptClient + Reconnect reclaims them without the
// upstreams ever seeing a withdrawal or the damper charging a flap.
func TestClientTransportReconnectRetainsRoutes(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	clientPfx := prefix("184.164.224.0/24")
	if err := r.srv.RegisterClient(ClientAccount{
		ID: "exp1", Allocation: clientAlloc(), TunnelAddr: addr("10.250.0.1"),
	}); err != nil {
		t.Fatal(err)
	}
	ca, cb := bufconn.Pipe()
	if err := r.srv.AcceptClient("exp1", ca); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Connect(client.Config{Name: "exp1", RouterID: addr("10.250.0.1")}, cb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	waitFor(t, "client sessions", func() bool { return cl.SessionCount() == 2 })

	r.up1.Announce(prefix("11.0.0.0/16"), router.AnnounceSpec{})
	waitFor(t, "upstream route at client", func() bool { return cl.RouteCount(1) == 1 })
	// Default dampening is in effect: announce via up1 only so the
	// single flap stays under the suppress threshold.
	if err := cl.Announce(clientPfx, client.AnnounceOptions{Upstreams: []uint32{1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "client prefix at upstream", func() bool { return r.up1.LocRIB().Best(clientPfx) != nil })
	base := r.srv.Stats()

	// Kill the whole tunnel. detachClient retains the announcement
	// stale instead of withdrawing it.
	ca.Close()
	waitFor(t, "stale retention after tunnel death", func() bool {
		return r.srv.Stats().StaleRoutesRetained == base.StaleRoutesRetained+1 &&
			r.srv.ClientCount() == 0
	})
	if r.up1.LocRIB().Best(clientPfx) == nil {
		t.Fatal("client prefix withdrawn when tunnel died")
	}

	// Reconnect on a fresh transport; the client replays its intent.
	ca2, cb2 := bufconn.Pipe()
	if err := r.srv.AcceptClient("exp1", ca2); err != nil {
		t.Fatal(err)
	}
	if err := cl.Reconnect(cb2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reconnect convergence", func() bool {
		return cl.SessionCount() == 2 && cl.RouteCount(1) == 1
	})
	waitFor(t, "announcement reclaimed", func() bool {
		return r.up1.LocRIB().Best(clientPfx) != nil
	})
	st := r.srv.Stats()
	if st.StaleRoutesFlushed != base.StaleRoutesFlushed {
		t.Fatalf("stale routes flushed on clean reconnect: %d", st.StaleRoutesFlushed-base.StaleRoutesFlushed)
	}
	if st.FlapsSuppressed != base.FlapsSuppressed {
		t.Fatalf("reconnect charged as flap: FlapsSuppressed %d -> %d", base.FlapsSuppressed, st.FlapsSuppressed)
	}
}

// TestRestartWindowWithdrawsOffTheTimer pins the rule that a timer
// callback never writes to a transport. The client restart window closes
// with the client's adverts still stale, so they are withdrawn from the
// upstream — over a transport whose latency waits on the very clock
// that is running the callback. Written from the callback, the
// withdrawal would wait inside Advance for time that Advance is holding
// still; it must leave on a goroutine of its own and land once the
// clock moves again.
func TestRestartWindowWithdrawsOffTheTimer(t *testing.T) {
	const window, latency = 10 * time.Second, time.Second
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	srv := newCheckedServer(t, Config{
		Site: "window01", ASN: testbedASN, RouterID: addr("184.164.224.1"),
		Mode: muxproto.ModeQuagga, Clock: clk, RestartWindow: window,
	})
	u, err := srv.AddUpstream(chaosUpstreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A bare BGP peer as the upstream, reporting what is withdrawn.
	mine := prefix("184.164.224.0/24")
	var withdrawn atomic.Bool
	fa, fb := faultconn.Pipe(clk)
	srv.AttachUpstream(u, fa)
	peer := bgp.New(fb, bgp.Config{LocalAS: 3356, LocalID: addr("4.69.0.1"), PeerAS: testbedASN, Clock: clk},
		bgp.HandlerFuncs{OnUpdate: func(_ *bgp.Session, upd *wire.Update) {
			for _, n := range upd.Withdrawn {
				if n.Prefix == mine {
					withdrawn.Store(true)
				}
			}
		}})
	go peer.Run()
	t.Cleanup(func() { peer.Close() })
	waitFor(t, "upstream session", func() bool { return u.Established() })

	cl := connectChaosClient(t, srv, clk, "exp1", addr("10.250.0.1"), mine)
	if err := cl.Announce(mine, client.AnnounceOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the advert to be booked", func() bool { return advertisedHas(u, mine, "exp1") })

	// The tunnel dies without a goodbye: the advert is retained stale
	// and the restart window starts.
	base := srv.Stats()
	clientByID(srv, "exp1").mux.Close()
	waitFor(t, "stale retention after tunnel death", func() bool {
		return srv.Stats().StaleRoutesRetained == base.StaleRoutesRetained+1
	})

	fa.SetLatency(latency)
	defer fa.SetLatency(0) // the closing Cease must not wait for a clock nobody moves
	advanced := make(chan struct{})
	go func() {
		clk.Advance(window)
		close(advanced)
	}()
	select {
	case <-advanced:
	case <-time.After(5 * time.Second):
		fa.Close() // release the write that stopped the clock, so cleanup can run
		t.Fatal("Advance(RestartWindow) did not return: the window's timer callback wrote to a transport that waits on the same clock")
	}
	waitFor(t, "the stale advert to be dropped", func() bool { return !advertisedHas(u, mine, "exp1") })
	if withdrawn.Load() {
		t.Fatal("withdrawal reached the upstream before the transport's latency had passed")
	}
	// Each step is shorter than a keepalive interval in total, so no
	// other write is parked on the clock when the server closes.
	steps := 0
	waitFor(t, "the withdrawal to reach the upstream once the clock moves", func() bool {
		if steps < 10 {
			clk.Advance(latency)
			steps++
		}
		return withdrawn.Load()
	})
}
