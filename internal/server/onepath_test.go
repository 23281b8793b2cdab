package server

// Tests for the one delivery form: every ingest op — a batch of one
// included — reaches clients as a frame, the worker merges what queued
// up behind it, withdraw sweeps are frames too, and nothing (registered
// clients, queued frames, goroutines, timers) outlives a run.

import (
	"fmt"
	"maps"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"peering/internal/bgp"
	"peering/internal/bufconn"
	"peering/internal/client"
	"peering/internal/clock"
	"peering/internal/muxproto"
	"peering/internal/policy/compiled"
	"peering/internal/rib"
	"peering/internal/wire"
)

// newCheckedServer builds a server whose cleanup asserts the end-of-run
// invariant once the server and everything registered after it have
// closed: no client is left registered, every queue of a client still
// registered when Close began is empty, and the goroutine count is back
// at its reading from before New.
func newCheckedServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	base := runtime.NumGoroutine()
	srv := New(cfg)
	var held []*clientConn
	t.Cleanup(func() { // registered first, so it runs after srv.Close
		waitFor(t, "every client detached, its queue empty", func() bool {
			return srv.ClientCount() == 0 && queuesEmpty(held)
		})
		waitFor(t, "goroutines back to baseline", func() bool {
			return runtime.NumGoroutine() <= base
		})
	})
	t.Cleanup(srv.Close)
	t.Cleanup(func() { held = srv.clientList() })
	return srv
}

// queuesEmpty reports whether no frame or End-of-RIB marker is queued
// for any of cs.
func queuesEmpty(cs []*clientConn) bool {
	for _, c := range cs {
		if c.out.depth() != 0 {
			return false
		}
	}
	return true
}

// frameRig is a mux whose upstreams have no sessions: tests inject runs
// of UPDATEs straight into the ingest pool, the way the session reader
// would, and watch what real clients receive.
type frameRig struct {
	srv *Server
	ups []*Upstream
}

func newFrameRig(t testing.TB, mode muxproto.Mode, shards, upstreams int) *frameRig {
	t.Helper()
	return newFrameRigQuota(t, mode, shards, upstreams, QuotaConfig{})
}

func newFrameRigQuota(t testing.TB, mode muxproto.Mode, shards, upstreams int, quota QuotaConfig) *frameRig {
	t.Helper()
	r := &frameRig{srv: newCheckedServer(t, Config{
		Site: "frames01", ASN: testbedASN, RouterID: addr("184.164.224.1"),
		Mode: mode, Shards: shards, Quota: quota,
	})}
	for i := 1; i <= upstreams; i++ {
		u, err := r.srv.AddUpstream(UpstreamConfig{
			ID: uint32(i), Name: fmt.Sprintf("up%d", i), ASN: uint32(3000 + i),
			PeerAddr:  addr(fmt.Sprintf("80.249.208.%d", 10*i)),
			LocalAddr: addr("80.249.208.1"),
		})
		if err != nil {
			t.Fatal(err)
		}
		r.ups = append(r.ups, u)
	}
	return r
}

// feed dispatches one run of UPDATEs from upstream u (1-based).
func (r *frameRig) feed(u int, upds ...*wire.Update) {
	up := r.ups[u-1]
	r.srv.ingest.dispatch(up, up.cfg.ASN, up.cfg.PeerAddr, upds)
}

func announce(a *wire.Attrs, ps ...netip.Prefix) *wire.Update {
	upd := &wire.Update{Attrs: a}
	for _, p := range ps {
		upd.Reach = append(upd.Reach, wire.NLRI{Prefix: p})
	}
	return upd
}

func withdraw(ps ...netip.Prefix) *wire.Update {
	upd := &wire.Update{}
	for _, p := range ps {
		upd.Withdrawn = append(upd.Withdrawn, wire.NLRI{Prefix: p})
	}
	return upd
}

// event is one UPDATE as a client saw it.
type event struct {
	upstream uint32
	reach    []netip.Prefix
	wd       []netip.Prefix
	med      uint32
}

// recorder collects the UPDATEs a client receives, in order.
type recorder struct {
	mu     sync.Mutex
	events []event
}

func (rec *recorder) onRoute(upstream uint32, upd *wire.Update) {
	ev := event{upstream: upstream}
	for _, n := range upd.Reach {
		ev.reach = append(ev.reach, n.Prefix)
	}
	for _, n := range upd.Withdrawn {
		ev.wd = append(ev.wd, n.Prefix)
	}
	if upd.Attrs != nil {
		ev.med = upd.Attrs.MED
	}
	rec.mu.Lock()
	rec.events = append(rec.events, ev)
	rec.mu.Unlock()
}

func (rec *recorder) snapshot() []event {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]event(nil), rec.events...)
}

// announced counts, per prefix, the announcements seen from upstream.
func (rec *recorder) announced(upstream uint32) map[netip.Prefix]int {
	out := make(map[netip.Prefix]int)
	for _, ev := range rec.snapshot() {
		if ev.upstream == upstream {
			for _, p := range ev.reach {
				out[p]++
			}
		}
	}
	return out
}

// heldConn is a client's end of its transport that keeps what the
// client writes to itself until release. The server starts a client's
// BGP sessions when it reads the provisioning ack, which Connect sends
// before it returns; holding the ack back is what lets a test register
// its recorder before any route can arrive.
type heldConn struct {
	net.Conn
	mu       sync.Mutex
	held     []byte
	released bool
}

func (h *heldConn) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.released {
		return h.Conn.Write(p)
	}
	h.held = append(h.held, p...)
	return len(p), nil
}

func (h *heldConn) release() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.released = true
	_, err := h.Conn.Write(h.held)
	return err
}

// join connects client number k (1-based) with a recorder registered
// before any route can reach it (heldConn) and returns once the server
// has replayed every upstream to it.
func (r *frameRig) join(t *testing.T, k int) (*client.Client, *recorder) {
	t.Helper()
	ca, cb := bufconn.Pipe()
	return r.joinOver(t, k, ca, cb)
}

// register gives client number k its account.
func (r *frameRig) register(t *testing.T, k int) (id string, tun netip.Addr) {
	t.Helper()
	id = fmt.Sprintf("exp%d", k)
	tun = addr(fmt.Sprintf("10.250.0.%d", k))
	if err := r.srv.RegisterClient(ClientAccount{
		ID: id, TunnelAddr: tun,
		Allocation: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{184, 164, byte(224 + k), 0}), 24)},
	}); err != nil {
		t.Fatal(err)
	}
	return id, tun
}

// joinOver is join over a transport of the caller's (ca the server's
// end, cb the client's).
func (r *frameRig) joinOver(t *testing.T, k int, ca, cb net.Conn) (*client.Client, *recorder) {
	t.Helper()
	id, tun := r.register(t, k)
	if err := r.srv.AcceptClient(id, ca); err != nil {
		t.Fatal(err)
	}
	held := &heldConn{Conn: cb}
	cl, err := client.Connect(client.Config{Name: id, RouterID: tun}, held)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	cl.OnRoute(rec.onRoute)
	t.Cleanup(func() { cl.Close() })
	if err := held.release(); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitEstablished(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Established on the client's side says nothing about the server's
	// replay walk; until it has opened the sync gates, live frames are
	// (rightly) dropped in favour of the snapshot.
	c := clientByID(r.srv, id)
	waitFor(t, id+"'s sync gates to open", func() bool {
		for i := range c.out.shards {
			sh := &c.out.shards[i]
			sh.mu.Lock()
			n := len(sh.synced)
			sh.mu.Unlock()
			if n < len(r.ups) {
				return false
			}
		}
		return true
	})
	return cl, rec
}

func medAttrs(asn, med uint32) *wire.Attrs {
	a := fanoutAttrs(asn)
	a.MED, a.HasMED = med, true
	return a
}

var shardCounts = []int{1, 4, 16}

// TestBatchOfOneOrderAndFold: announce → withdraw → announce of one
// prefix as three consecutive batches-of-one reaches every client as
// three UPDATEs in that order (the queue folds nothing), while the same
// three operations inside one batch fold to the last before any client
// queue sees them — counted once, not per client.
func TestBatchOfOneOrderAndFold(t *testing.T) {
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := newFrameRig(t, muxproto.ModeQuagga, shards, 1)
			var recs []*recorder
			for k := 1; k <= 3; k++ {
				_, rec := r.join(t, k)
				recs = append(recs, rec)
			}
			p := prefix("96.0.0.0/24")

			// A fence between ops keeps the worker from merging them.
			r.feed(1, announce(medAttrs(3001, 1), p))
			r.srv.ingest.barrier()
			r.feed(1, withdraw(p))
			r.srv.ingest.barrier()
			r.feed(1, announce(medAttrs(3001, 2), p))
			r.srv.ingest.barrier()
			for k, rec := range recs {
				waitFor(t, fmt.Sprintf("client %d sees three UPDATEs", k+1), func() bool { return len(rec.snapshot()) == 3 })
				evs := rec.snapshot()
				if len(evs[0].reach) != 1 || evs[0].med != 1 || len(evs[1].wd) != 1 || len(evs[2].reach) != 1 || evs[2].med != 2 {
					t.Fatalf("client %d saw %+v, want announce(med 1), withdraw, announce(med 2)", k+1, evs)
				}
			}
			if n := r.srv.Stats().FanoutCoalesced; n != 0 {
				t.Fatalf("FanoutCoalesced = %d after three batches of one, want 0", n)
			}

			// One batch: the fold leaves only the last state.
			r.feed(1, announce(medAttrs(3001, 3), p), withdraw(p), announce(medAttrs(3001, 4), p))
			for k, rec := range recs {
				waitFor(t, fmt.Sprintf("client %d sees the folded UPDATE", k+1), func() bool { return len(rec.snapshot()) == 4 })
				if ev := rec.snapshot()[3]; len(ev.reach) != 1 || len(ev.wd) != 0 || ev.med != 4 {
					t.Fatalf("client %d saw %+v, want one announcement with med 4", k+1, ev)
				}
			}
			r.srv.ingest.barrier()
			if n := r.srv.Stats().FanoutCoalesced; n != 2 {
				t.Fatalf("FanoutCoalesced = %d, want 2 (two overwritten operations, counted once)", n)
			}
			time.Sleep(20 * time.Millisecond) // nothing further may trickle in
			for k, rec := range recs {
				if n := len(rec.snapshot()); n != 4 {
					t.Fatalf("client %d saw %d UPDATEs, want 4", k+1, n)
				}
			}
		})
	}
}

// TestJoinLargerThanCap: a replay's own snapshot frames do not count
// against the queue cap, so a healthy client joining a table far larger
// than Quota.MaxQueueOps is sent it once — nothing shed, no resync —
// and ends up with what a client of a capless mux holds.
func TestJoinLargerThanCap(t *testing.T) {
	const n = 2000
	tables := make([]map[netip.Prefix]string, 2)
	for k, quota := range []QuotaConfig{{MaxQueueOps: 64}, {MaxQueueOps: -1}} {
		r := newFrameRigQuota(t, muxproto.ModeQuagga, 4, 1, quota)
		for i := 0; i < n; i += 100 {
			upd := &wire.Update{Attrs: medAttrs(3001, uint32(i))}
			for j := i; j < i+100; j++ {
				upd.Reach = append(upd.Reach, wire.NLRI{Prefix: prefix(fmt.Sprintf("96.%d.%d.0/24", j/256, j%256))})
			}
			r.feed(1, upd)
		}
		r.srv.ingest.barrier()
		base := r.srv.Stats()
		cl, _ := r.join(t, 1)
		waitFor(t, "joiner holds the table", func() bool {
			return cl.RouteCount(1) == n && r.srv.Stats().RoutesRelayedToClients == base.RoutesRelayedToClients+n
		})
		time.Sleep(20 * time.Millisecond) // a second copy would trail the first
		st := r.srv.Stats()
		if st.FanoutShed != base.FanoutShed || st.FanoutResyncs != base.FanoutResyncs {
			t.Fatalf("quota %+v: joiner shed %d routes and resynced %d times, want 0 and 0",
				quota, st.FanoutShed-base.FanoutShed, st.FanoutResyncs-base.FanoutResyncs)
		}
		if got := st.RoutesRelayedToClients - base.RoutesRelayedToClients; got != n {
			t.Fatalf("quota %+v: %d routes relayed to the joiner, want exactly %d", quota, got, n)
		}
		tables[k] = tableOf(t, cl.Routes(1))
	}
	if !maps.Equal(tables[0], tables[1]) {
		t.Fatalf("capped joiner's table (%d prefixes) differs from the capless mux's (%d)", len(tables[0]), len(tables[1]))
	}
}

// TestJoinMidIngestExactlyOnce: clients attaching while single-NLRI
// UPDATEs stream in get each route exactly once — from their replay
// snapshot or from a live batch-of-one frame, never both — and a
// withdraw sweep racing a joiner leaves every client with the table.
func TestJoinMidIngestExactlyOnce(t *testing.T) {
	const n = 1500
	pfx := func(i int) netip.Prefix { return prefix(fmt.Sprintf("96.%d.%d.0/24", i/256, i%256)) }
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := newFrameRig(t, muxproto.ModeQuagga, shards, 1)
			u := r.ups[0]
			clients := make([]*client.Client, 4)
			recs := make([]*recorder, 4)
			clients[0], recs[0] = r.join(t, 1)

			fed := make(chan struct{})
			go func() {
				defer close(fed)
				for i := 0; i < n; i++ {
					r.feed(1, announce(medAttrs(3001, uint32(i%7)), pfx(i)))
					if i%100 == 0 {
						runtime.Gosched()
					}
				}
			}()
			for k := 2; k <= 3; k++ {
				clients[k-1], recs[k-1] = r.join(t, k)
			}
			<-fed
			r.srv.ingest.barrier()
			for k := 0; k < 3; k++ {
				cl, rec := clients[k], recs[k]
				waitFor(t, fmt.Sprintf("client %d holds the table", k+1), func() bool {
					return cl.RouteCount(1) == n && len(rec.announced(1)) == n
				})
			}
			time.Sleep(20 * time.Millisecond) // a duplicate would trail the first copy
			for k := 0; k < 3; k++ {
				seen := recs[k].announced(1)
				for i := 0; i < n; i++ {
					if c := seen[pfx(i)]; c != 1 {
						t.Fatalf("client %d was announced %v %d times, want exactly once", k+1, pfx(i), c)
					}
				}
			}

			// Graceful-restart sweep: everything goes stale, the even
			// prefixes are refreshed one UPDATE at a time, and the sweep
			// runs while a fourth client joins.
			u.adjIn.MarkAllStale()
			for i := 0; i < n; i += 2 {
				r.feed(1, announce(medAttrs(3001, uint32(i%7)), pfx(i)))
			}
			swept := make(chan struct{})
			go func() {
				defer close(swept)
				r.srv.flushUpstreamStale(u)
			}()
			clients[3], recs[3] = r.join(t, 4)
			<-swept
			// The fourth client's count passes through n/2 on its way up
			// (its replay carries shards the sweep has not reached yet), so
			// the count alone does not say it has settled.
			sweptLeft := func(cl *client.Client) netip.Prefix {
				for _, rt := range cl.Routes(1) {
					if i := int(rt.Prefix.Addr().As4()[1])*256 + int(rt.Prefix.Addr().As4()[2]); i%2 != 0 {
						return rt.Prefix
					}
				}
				return netip.Prefix{}
			}
			for k, cl := range clients {
				waitFor(t, fmt.Sprintf("client %d holds the refreshed half", k+1), func() bool {
					return cl.RouteCount(1) == n/2 && !sweptLeft(cl).IsValid()
				})
			}
			time.Sleep(20 * time.Millisecond) // a late frame would undo it
			for k, cl := range clients {
				if p := sweptLeft(cl); p.IsValid() || cl.RouteCount(1) != n/2 {
					t.Fatalf("client %d holds %d routes, swept prefix %v among them", k+1, cl.RouteCount(1), p)
				}
			}
			if got := u.RoutesIn(); got != n/2 {
				t.Fatalf("Adj-RIB-In holds %d routes after the sweep, want %d", got, n/2)
			}
			// The sweep is one withdraw-only frame per shard, shared by
			// every client: the three settled clients each saw at most
			// one withdrawal UPDATE run per shard, never one per prefix.
			for k := 0; k < 3; k++ {
				withdrawals := 0
				for _, ev := range recs[k].snapshot() {
					if len(ev.wd) > 0 {
						withdrawals++
					}
				}
				if withdrawals > shards {
					t.Fatalf("client %d got %d withdrawal UPDATEs for the sweep, want at most %d (one per shard)", k+1, withdrawals, shards)
				}
			}
		})
	}
}

// TestWorkerMergesQueuedOps holds an ingest worker at the table lock
// while ops pile up behind it, then checks what the merge made of them:
// consecutive ops of one upstream become one frame, two upstreams
// interleaved on the shard never share one, a fence is never overtaken,
// and a policy reload lands wholly before or wholly after a merged
// batch — the filter pointer is loaded once for all of it.
func TestWorkerMergesQueuedOps(t *testing.T) {
	r := newFrameRig(t, muxproto.ModeBIRD, 1, 2)
	srv := r.srv
	// Verdict counters tell when the worker is past merging.
	srv.LoadPolicy(&compiled.RuleSet{
		Prefixes: []compiled.PrefixRule{{Prefix: prefix("184.164.224.0/19"), Le: 32}},
	})
	_, rec := r.join(t, 1)
	a, b := medAttrs(3001, 1), medAttrs(3002, 2)
	p := func(i int) netip.Prefix { return prefix(fmt.Sprintf("96.0.%d.0/24", i)) }

	release := make(chan struct{})
	held := make(chan struct{})
	go r.ups[0].adjIn.ReadShard(0, func(uint64, *rib.AdjRIB) {
		close(held)
		<-release
	})
	<-held
	r.feed(1, announce(a, p(1)))
	waitFor(t, "the worker to reach the table lock", func() bool { return srv.Stats().PolicyAccepted == 1 })

	// Queued behind the held op: A2 A3 | B1 | A4 | fence | A5 A6.
	r.feed(1, announce(a, p(2)))
	r.feed(1, announce(a, p(3)))
	r.feed(2, announce(b, p(1)))
	r.feed(1, announce(a, p(4)))
	fenced := make(chan struct{})
	go func() {
		defer close(fenced)
		srv.ingest.barrier()
	}()
	waitFor(t, "the fence to queue", func() bool { return srv.ingest.queued.Load() == 5 })
	r.feed(1, announce(a, p(5)))
	r.feed(1, announce(a, p(6)))
	// From here on 96.0.2.0/23 is forbidden: p(2) and p(3), queued
	// before the reload, are judged after it — both of them.
	srv.LoadPolicy(&compiled.RuleSet{
		Prefixes: []compiled.PrefixRule{{Prefix: prefix("96.0.2.0/23"), Le: 24}},
	})
	close(release)

	<-fenced
	// p(4) alone and p(5), p(6) together: the fence between them was
	// not merged across.
	want := []event{
		{upstream: 1, reach: []netip.Prefix{p(1)}, med: 1},
		{upstream: 2, reach: []netip.Prefix{p(1)}, med: 2},
		{upstream: 1, reach: []netip.Prefix{p(4)}, med: 1},
		{upstream: 1, reach: []netip.Prefix{p(5), p(6)}, med: 1},
	}
	waitFor(t, "the client to see every frame", func() bool { return len(rec.snapshot()) >= len(want) })
	got := rec.snapshot()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("client saw\n %+v\nwant\n %+v", got, want)
	}
	if st := srv.Stats(); st.PolicyRejected != 2 {
		t.Fatalf("PolicyRejected = %d, want 2: the merged batch must get one rule set", st.PolicyRejected)
	}
}

// TestFlushedFrameIsCollectable: once every queue has flushed a frame,
// nothing in the mux keeps it (or the NLRI slices it owns) reachable —
// not a queue shard's backing array, not the fan-out worker's reused
// drain slice.
func TestFlushedFrameIsCollectable(t *testing.T) {
	r := newFrameRig(t, muxproto.ModeQuagga, 1, 1)
	for k := 1; k <= 2; k++ {
		r.join(t, k)
	}
	collected := make(chan struct{})
	// The frame is built here so the test can hang a finalizer on it; it
	// goes out the way the ingest worker sends one.
	func() {
		f := newBroadcastFrame(1, 1, 0, []batchEntry{ann("96.0.0.0/24", fanoutAttrs(3001))})
		runtime.SetFinalizer(f, func(*broadcastFrame) { close(collected) })
		r.ups[0].adjIn.Update(0, func(*rib.AdjRIB) { r.srv.broadcast(0, r.srv.clientList(), f) })
	}()
	waitFor(t, "both clients flushed the frame", func() bool {
		return r.srv.Stats().RoutesRelayedToClients == 2 && queuesEmpty(r.srv.clientList())
	})
	waitFor(t, "the flushed frame to be collected", func() bool {
		runtime.GC()
		select {
		case <-collected:
			return true
		default:
			return false
		}
	})
}

// TestNoTimerArmedAfterClose: a transport dying after Server.Close must
// not arm a restart-window timer — nobody is left to stop it, and it
// would pin the whole table for two minutes.
func TestNoTimerArmedAfterClose(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	srv := newCheckedServer(t, Config{
		Site: "closed01", ASN: testbedASN, RouterID: addr("184.164.224.1"),
		Mode: muxproto.ModeQuagga, Clock: clk,
	})
	u, err := srv.AddUpstream(chaosUpstreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	peerCfg := bgp.Config{LocalAS: 3356, LocalID: addr("4.69.0.1"), PeerAS: testbedASN, Clock: clk}
	// attach brings up an upstream session against a bare BGP peer (a
	// router would keep timers of its own on the clock).
	attach := func() (transport *bufconn.Conn, sess, peer *bgp.Session) {
		ca, cb := bufconn.Pipe()
		sess = srv.AttachUpstream(u, ca)
		peer = bgp.New(cb, peerCfg, bgp.HandlerFuncs{})
		go peer.Run()
		waitFor(t, "upstream session", func() bool { return u.Established() })
		return ca, sess, peer
	}
	attach()
	// The client runs on the system clock: its own connect and
	// establish timeouts would otherwise sit on the virtual clock.
	mine := prefix("184.164.224.0/24")
	if err := srv.RegisterClient(ClientAccount{ID: "exp1", Allocation: []netip.Prefix{mine}, TunnelAddr: addr("10.250.0.1")}); err != nil {
		t.Fatal(err)
	}
	cca, ccb := bufconn.Pipe()
	if err := srv.AcceptClient("exp1", cca); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Connect(client.Config{Name: "exp1", RouterID: addr("10.250.0.1")}, ccb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.WaitEstablished(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cl.Announce(mine, client.AnnounceOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the advert to be booked", func() bool { return advertisedHas(u, mine, "exp1") })

	srv.Close()
	// The client's transport died with Close, its advert still booked:
	// detaching must not arm the client restart timer.
	waitFor(t, "the client to detach", func() bool { return srv.ClientCount() == 0 })
	// An upstream transport that dies uncleanly after Close.
	ca, sess, peer := attach()
	ca.Close()
	<-sess.Done()
	<-peer.Done()
	waitFor(t, "the upstream loss to be handled", func() bool {
		u.mu.RLock()
		defer u.mu.RUnlock()
		return u.sess == nil
	})
	waitFor(t, "no timer left armed", func() bool { return clk.PendingTimers() == 0 })
}
