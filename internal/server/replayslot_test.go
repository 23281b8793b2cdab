package server

// Replay slots (fanout.go, frame.go): one cached snapshot per (upstream,
// RIB shard), shared by every joiner until the shard's next write. All
// on newCheckedServer rigs, so a client or a queued frame that outlives
// Close fails the test that left it.

import (
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"peering/internal/bgp"
	"peering/internal/bufconn"
	"peering/internal/client"
	"peering/internal/faultconn"
	"peering/internal/muxproto"
	"peering/internal/rib"
	"peering/internal/tunnel"
	"peering/internal/wire"
)

func slotPfx(i int) netip.Prefix { return prefix(fmt.Sprintf("96.%d.%d.0/24", i/256, i%256)) }

// load feeds routes [lo, hi) from upstream 1, a hundred to an UPDATE,
// each UPDATE with attributes of its own, and waits for them.
func (r *frameRig) load(lo, hi int) {
	for i := lo; i < hi; i += 100 {
		upd := &wire.Update{Attrs: medAttrs(3001, uint32(i))}
		for j := i; j < hi && j < i+100; j++ {
			upd.Reach = append(upd.Reach, wire.NLRI{Prefix: slotPfx(j)})
		}
		r.feed(1, upd)
	}
	r.srv.ingest.barrier()
}

// model is upstream 1's Adj-RIB-In in the shape tableOf gives a client's
// view.
func (r *frameRig) model(t testing.TB) map[netip.Prefix]string {
	return adjInOf(t, r.ups[0])
}

// holds waits until the client's view of upstream 1 is the model.
func (r *frameRig) holds(t *testing.T, who string, cl *client.Client) map[netip.Prefix]string {
	t.Helper()
	want := r.model(t)
	var got map[netip.Prefix]string
	waitFor(t, who+" to hold the table", func() bool {
		got = tableOf(t, cl.Routes(1))
		return maps.Equal(got, want)
	})
	return got
}

// wantSlotDelta checks the snapshot builds and hits counted since base.
func (r *frameRig) wantSlotDelta(t *testing.T, base Stats, builds, hits uint64) {
	t.Helper()
	st := r.srv.Stats()
	if b, h := st.ReplaySnapshotBuilds-base.ReplaySnapshotBuilds, st.ReplaySnapshotHits-base.ReplaySnapshotHits; b != builds || h != hits {
		t.Fatalf("snapshot builds, hits = %d, %d; want %d, %d", b, h, builds, hits)
	}
}

// sameShard returns the first k of slotPfx(lo..hi) that hash where like
// does.
func sameShard(t *testing.T, shards int, like netip.Prefix, lo, hi, k int) []netip.Prefix {
	t.Helper()
	mask := uint32(shards - 1)
	var out []netip.Prefix
	for i := lo; i < hi && len(out) < k; i++ {
		if p := slotPfx(i); rib.PrefixShard(p)&mask == rib.PrefixShard(like)&mask {
			out = append(out, p)
		}
	}
	if len(out) < k {
		t.Fatalf("only %d of %d prefixes share %v's shard", len(out), k, like)
	}
	return out
}

// TestReplaySlotServesLaterJoiners: joiners to a quiet table each get
// the whole table exactly once, the first builds every shard's snapshot
// and the others ride it; at rest the slots hold encoded bytes and no
// logical groups, and every queue is empty.
func TestReplaySlotServesLaterJoiners(t *testing.T) {
	const n, joiners = 2000, 4
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := newFrameRig(t, muxproto.ModeQuagga, shards, 1)
			r.load(0, n)
			base := r.srv.Stats()
			for k := 1; k <= joiners; k++ {
				cl, rec := r.join(t, k)
				r.holds(t, fmt.Sprintf("joiner %d", k), cl)
				for p, times := range rec.announced(1) {
					if times != 1 {
						t.Fatalf("joiner %d saw %v announced %d times", k, p, times)
					}
				}
			}
			r.wantSlotDelta(t, base, uint64(shards), uint64((joiners-1)*shards))
			waitFor(t, "the queues to flush the slots' frames", func() bool { return queuesEmpty(r.srv.clientList()) })
			st := r.srv.Stats()
			if got := st.RoutesRelayedToClients - base.RoutesRelayedToClients; got != joiners*n {
				t.Fatalf("%d routes relayed to %d joiners of a %d-route table", got, joiners, n)
			}
			if st.ReplaySnapshotBytes == 0 {
				t.Fatal("warm slots hold no bytes")
			}
			for i := range r.ups[0].replay {
				for _, f := range r.ups[0].replay[i].frames {
					if f.groups != nil || f.wireLen() == 0 {
						t.Fatalf("shard %d: a flushed slot frame keeps %d logical groups beside %d wire bytes", i, len(f.groups), f.wireLen())
					}
				}
			}
			if m := r.srv.metrics; m.fanoutFramePrivate.Value() != 0 || m.fanoutFrameShared.Value() == 0 {
				t.Fatalf("slot flushes counted %d shared, %d private", m.fanoutFrameShared.Value(), m.fanoutFramePrivate.Value())
			}
		})
	}
}

// TestReplaySlotRebuiltAfterWrite: an announce, a replace with new
// attributes and a withdraw landing in one shard between two joins cost
// that shard's snapshot and no other; a graceful-restart stale sweep
// costs every shard's. Either way the next joiner gets the table as it
// is, and no route that left it.
func TestReplaySlotRebuiltAfterWrite(t *testing.T) {
	const n, shards = 2000, 4
	r := newFrameRig(t, muxproto.ModeQuagga, shards, 1)
	r.load(0, n)
	first, _ := r.join(t, 1)
	r.holds(t, "first joiner", first)

	ps := sameShard(t, shards, slotPfx(0), 0, n, 2)
	replaced, withdrawn := ps[0], ps[1]
	added := sameShard(t, shards, slotPfx(0), n, 2*n, 1)[0]
	r.feed(1, announce(medAttrs(3001, 7_000_001), added), announce(medAttrs(3001, 7_000_002), replaced), withdraw(withdrawn))
	r.srv.ingest.barrier()

	base := r.srv.Stats()
	cl, _ := r.join(t, 2)
	got := r.holds(t, "joiner after the write", cl)
	if _, ok := got[withdrawn]; ok {
		t.Fatalf("joiner holds %v, withdrawn before it joined", withdrawn)
	}
	if _, ok := got[added]; !ok {
		t.Fatalf("joiner lacks %v, announced before it joined", added)
	}
	r.wantSlotDelta(t, base, 1, shards-1)
	r.holds(t, "first joiner, after the write", first)

	// Graceful restart: everything goes stale, the peer comes back with
	// all but the first hundred routes, and the rest are swept.
	u := r.ups[0]
	u.adjIn.MarkAllStale()
	r.load(100, n)
	r.srv.flushUpstreamStale(u)
	base = r.srv.Stats()
	cl, _ = r.join(t, 3)
	got = r.holds(t, "joiner after the sweep", cl)
	for _, p := range []netip.Prefix{added, slotPfx(0), slotPfx(99)} {
		if _, ok := got[p]; ok {
			t.Fatalf("joiner holds %v, swept as stale before it joined", p)
		}
	}
	r.wantSlotDelta(t, base, shards, 0)
	r.holds(t, "first joiner, after the sweep", first)
}

// plainClient is a client that offers no ADD-PATH: on a BIRD-mode mux
// its session negotiates other codec options than the mux's.
type plainClient struct {
	mu       sync.Mutex
	sessions []*bgp.Session // one per BGP stream the server opened
	updates  int
}

func (pc *plainClient) state() (sessions []*bgp.Session, updates int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return slices.Clone(pc.sessions), pc.updates
}

func (r *frameRig) joinPlain(t *testing.T, k int) *plainClient {
	t.Helper()
	id, tun := r.register(t, k)
	ca, cb := bufconn.Pipe()
	if err := r.srv.AcceptClient(id, ca); err != nil {
		t.Fatal(err)
	}
	pc := &plainClient{}
	onUpdate := func(*bgp.Session, *wire.Update) {
		pc.mu.Lock()
		pc.updates++
		pc.mu.Unlock()
	}
	mux := tunnel.NewMux(cb, func(st *tunnel.Stream) {
		switch {
		case st.ID() == muxproto.StreamControl:
			go func() {
				if _, err := muxproto.ReadProvisioning(st); err == nil {
					st.Write([]byte("ok\n"))
				}
			}()
		case st.ID() >= muxproto.StreamBGPBase:
			sess := bgp.New(st, bgp.Config{LocalAS: testbedASN, LocalID: tun}, bgp.HandlerFuncs{OnUpdate: onUpdate})
			pc.mu.Lock()
			pc.sessions = append(pc.sessions, sess)
			pc.mu.Unlock()
			go sess.Run()
		}
	})
	t.Cleanup(func() { mux.Close() })
	return pc
}

// TestClientCodecRefused: a mux has one client codec, and every
// internal/client joiner negotiates exactly it in either mode. A
// BIRD-mode client that offers no ADD-PATH is refused with
// Cease/Connection Rejected as its session comes up: it is sent no
// UPDATE, nothing redials it, and ADD-PATH joiners before and after it
// share the replay slots as if it had never come.
func TestClientCodecRefused(t *testing.T) {
	for _, mode := range []muxproto.Mode{muxproto.ModeQuagga, muxproto.ModeBIRD} {
		r := newFrameRig(t, mode, 1, 2)
		r.join(t, 1)
		want := wire.Options{AS4: true, AddPath: mode == muxproto.ModeBIRD}
		c := clientByID(r.srv, "exp1")
		keys := []uint32{1, 2}
		if mode == muxproto.ModeBIRD {
			keys = []uint32{0}
		}
		for _, key := range keys {
			if got := c.session(key).Options(); got != want || got != r.srv.clientOpts {
				t.Fatalf("%s mode, session %d: negotiated %+v, mux codec %+v, want %+v", mode, key, got, r.srv.clientOpts, want)
			}
		}
	}

	const n, shards, ups = 1000, 4, 2
	r := newFrameRig(t, muxproto.ModeBIRD, shards, ups)
	r.load(0, n)
	base := r.srv.Stats()
	cl, _ := r.join(t, 1)
	r.holds(t, "ADD-PATH joiner", cl)
	r.wantSlotDelta(t, base, ups*shards, 0)

	pc := r.joinPlain(t, 2)
	waitFor(t, "the plain client's session to end", func() bool {
		sessions, _ := pc.state()
		return len(sessions) == 1 && sessions[0].State() == bgp.StateClosed
	})
	c := clientByID(r.srv, "exp2")
	c.mu.Lock()
	sup := c.sups[0]
	c.mu.Unlock()
	<-sup.Done()

	cl, _ = r.join(t, 3)
	r.holds(t, "ADD-PATH joiner after the refusal", cl)
	r.wantSlotDelta(t, base, ups*shards, ups*shards)
	time.Sleep(20 * time.Millisecond) // a redial or a stray UPDATE would trail
	sessions, updates := pc.state()
	var pce *bgp.PeerClosedError
	if err := sessions[0].Err(); !errors.As(err, &pce) || pce.Notif.Code != wire.CodeCease || pce.Notif.Subcode != wire.SubConnectionRejected {
		t.Fatalf("the plain client's session ended with %v, want Cease/Connection Rejected", err)
	}
	if len(sessions) != 1 || updates != 0 || sup.Stats().Attempts != 0 {
		t.Fatalf("the plain client got %d sessions and %d UPDATEs, its supervisor %d redials; want 1, 0, 0",
			len(sessions), updates, sup.Stats().Attempts)
	}
}

// tightAttrs returns attributes that fit an UPDATE beside p as an
// upstream sends it, without a path ID, and do not beside p with the
// ADD-PATH ID a BIRD-mode mux stamps on it.
func tightAttrs(t testing.TB, p netip.Prefix) *wire.Attrs {
	t.Helper()
	a := medAttrs(3001, 999)
	upd := &wire.Update{Attrs: a, Reach: []wire.NLRI{{Prefix: p, ID: 1}}}
	for i := 0; ; i++ {
		if _, err := wire.AppendMessage(nil, upd, wire.Options{AS4: true, AddPath: true}); err != nil {
			if _, err := wire.AppendMessage(nil, upd, wire.DefaultOptions); err != nil {
				t.Fatalf("attributes that just overflow %v with a path ID overflow it without one too: %v", p, err)
			}
			return a
		}
		a.AddCommunity(wire.MakeCommunity(65000, uint16(i)))
	}
}

// TestFrameLeavesOutWhatDoesNotEncode: on a BIRD-mode mux, one route
// whose attributes fit a message from its upstream but not beside the
// path ID the mux stamps on it is left out of its frame, and the other
// hundred routes of its shard go — from the replay slot to a joiner,
// and live, in one dispatch, to a client whose session stays up.
func TestFrameLeavesOutWhatDoesNotEncode(t *testing.T) {
	// holdsOthers waits until cl holds r's table but for bad.
	holdsOthers := func(t *testing.T, r *frameRig, who string, cl *client.Client, bad netip.Prefix) {
		t.Helper()
		r.srv.ingest.barrier()
		want := r.model(t)
		delete(want, bad)
		if len(want) != 100 {
			t.Fatalf("the table holds %d other routes, want 100", len(want))
		}
		waitFor(t, who+" to hold every other route", func() bool { return maps.Equal(tableOf(t, cl.Routes(1)), want) })
	}
	for _, shards := range []int{1, 4} {
		ps := sameShard(t, shards, slotPfx(0), 0, 2000, 101)
		bad := ps[0]
		mix := []*wire.Update{announce(tightAttrs(t, bad), bad), announce(medAttrs(3001, 1), ps[1:]...)}
		t.Run(fmt.Sprintf("replay/shards=%d", shards), func(t *testing.T) {
			r := newFrameRig(t, muxproto.ModeBIRD, shards, 1)
			r.feed(1, mix...)
			r.srv.ingest.barrier()
			cl, _ := r.join(t, 1)
			holdsOthers(t, r, "the joiner", cl, bad)
		})
		t.Run(fmt.Sprintf("live/shards=%d", shards), func(t *testing.T) {
			r := newFrameRig(t, muxproto.ModeBIRD, shards, 1)
			cl, _ := r.join(t, 1)
			sess := clientByID(r.srv, "exp1").session(0)
			r.feed(1, mix...)
			holdsOthers(t, r, "the established client", cl, bad)
			time.Sleep(20 * time.Millisecond) // a reset would trail
			if now := clientByID(r.srv, "exp1").session(0); now != sess || !sess.Established() || clientSupFailures(r.srv, "exp1", 0) != 0 {
				t.Fatalf("the client's session was replaced (%v) or went down (%v, %d failures)",
					now != sess, sess.State(), clientSupFailures(r.srv, "exp1", 0))
			}
			if st := r.srv.Stats(); st.ReconnectAttempts != 0 {
				t.Fatalf("%d reconnect attempts", st.ReconnectAttempts)
			}
		})
	}
}

// TestReplaySlotReleasedByWrite: the first write to a shard after a
// join lets that shard's snapshot go and leaves the others' alone.
func TestReplaySlotReleasedByWrite(t *testing.T) {
	const n, shards = 1000, 4
	r := newFrameRig(t, muxproto.ModeQuagga, shards, 1)
	r.load(0, n)
	cl, _ := r.join(t, 1)
	r.holds(t, "joiner", cl)
	if r.srv.Stats().ReplaySnapshotBytes == 0 {
		t.Fatal("the join left no snapshot behind")
	}
	for i := 0; i < shards; i++ {
		// One shard at a time: the others keep theirs.
		held := r.srv.Stats().ReplaySnapshotBytes
		r.feed(1, announce(medAttrs(3001, 1), inShard(shards, i, n)))
		r.srv.ingest.barrier()
		if now := r.srv.Stats().ReplaySnapshotBytes; now >= held {
			t.Fatalf("a write to shard %d left %d snapshot bytes held, of %d", i, now, held)
		}
	}
	if held := r.srv.Stats().ReplaySnapshotBytes; held != 0 {
		t.Fatalf("%d snapshot bytes held after every shard was written", held)
	}
	r.holds(t, "joiner, after the writes", cl)

	cl, _ = r.join(t, 2)
	r.holds(t, "second joiner", cl)
	if r.srv.Stats().ReplaySnapshotBytes == 0 {
		t.Fatal("the second join left no snapshot behind")
	}
}

// inShard returns the first slotPfx(j), j ≥ from, that hashes to shard i.
func inShard(shards, i, from int) netip.Prefix {
	for j := from; ; j++ {
		if p := slotPfx(j); int(rib.PrefixShard(p)&uint32(shards-1)) == i {
			return p
		}
	}
}

// TestReplaySlotFrameOutlivesSlot: a slot's frames queued for a client
// whose writes are stalled stay whole while every shard is written and
// lets its slot go; once unstalled, the client ends on the written
// table with every route announced exactly once by the replay or the
// writes after it.
func TestReplaySlotFrameOutlivesSlot(t *testing.T) {
	const n, shards = 1000, 4
	r := newFrameRig(t, muxproto.ModeQuagga, shards, 1)
	r.load(0, n)
	fcSrv, fcCli := faultconn.Pipe(nil)
	cl, rec := r.joinOver(t, 1, fcSrv, fcCli)
	r.holds(t, "joiner", cl)
	waitFor(t, "the join on the recorder", func() bool { return len(rec.announced(1)) == n })
	before := rec.announced(1)

	// A refresh served from the warm slots, its flusher parked in a write.
	fcSrv.Stall()
	base := r.srv.Stats()
	r.srv.enqueueReplay(clientByID(r.srv, "exp1"), r.ups[0], false)
	r.wantSlotDelta(t, base, 0, shards)

	// Every shard gains a route and loses one, and drops its slot: the
	// client's queue and drain are all that hold those frames now.
	for i := 0; i < shards; i++ {
		r.feed(1, announce(medAttrs(3001, 9_000_000), inShard(shards, i, n)), withdraw(inShard(shards, i, 0)))
	}
	r.srv.ingest.barrier()
	if held := r.srv.Stats().ReplaySnapshotBytes; held != 0 {
		t.Fatalf("%d snapshot bytes held after every shard was written", held)
	}
	runtime.GC()

	fcSrv.Unstall()
	r.holds(t, "client, after the writes", cl)
	delta := func() (map[netip.Prefix]int, int) {
		d, sum := rec.announced(1), 0
		for p := range d {
			d[p] -= before[p]
			sum += d[p]
		}
		return d, sum
	}
	waitFor(t, "the replay and the writes on the recorder", func() bool { _, sum := delta(); return sum >= n+shards })
	d, sum := delta()
	if sum != n+shards {
		t.Fatalf("%d announcements after the refresh, want %d", sum, n+shards)
	}
	for p, k := range d {
		if k != 1 {
			t.Fatalf("%v announced %d times after the refresh, want once", p, k)
		}
	}
}

// TestReplaySlotResyncUnderCap: a laggard shed at its queue cap is
// resynced from the slots a healthy joiner warmed meanwhile — snapshot
// frames the cap neither counts nor sheds — and every queue that held
// them accounts them back out.
func TestReplaySlotResyncUnderCap(t *testing.T) {
	const shards = 4
	r := newFrameRigQuota(t, muxproto.ModeQuagga, shards, 1, QuotaConfig{MaxQueueOps: 64})
	r.load(0, 512)
	fcSrv, fcCli := faultconn.Pipe(nil)
	slow, _ := r.joinOver(t, 1, fcSrv, fcCli)
	healthy, _ := r.join(t, 2)
	r.holds(t, "laggard, before the stall", slow)

	fcSrv.Stall()
	laggard := clientByID(r.srv, "exp1")
	next := 512
	for i := 0; i < 64 && laggard.out.shed.Load() == 0 && r.srv.Stats().FanoutShed == 0; i++ {
		r.load(next, next+512)
		next += 512
	}
	if laggard.out.shed.Load() == 0 && r.srv.Stats().FanoutShed == 0 {
		t.Fatal("laggard never shed a frame at its queue cap")
	}
	r.holds(t, "healthy client, through the stall", healthy)
	late, _ := r.join(t, 3) // warms every slot at the table's last version
	r.holds(t, "late joiner", late)

	base := r.srv.Stats()
	fcSrv.Unstall()
	r.holds(t, "laggard, resynced", slow)
	st := r.srv.Stats()
	resyncs := st.FanoutResyncs - base.FanoutResyncs
	if resyncs == 0 {
		t.Fatal("laggard converged without a resync")
	}
	r.wantSlotDelta(t, base, 0, resyncs*shards)
	waitFor(t, "every queue to drain", func() bool {
		for _, c := range r.srv.clientList() {
			if c.out.depthSnap.Load() != 0 || c.out.depthOps.Load() != 0 {
				return false
			}
		}
		return true
	})
}

// TestReplaySlotConcurrentJoinsWritesClose: replays for several clients
// (what a route refresh or a resync queues), stats scrapes, live writes,
// a stale sweep and finally Close all reach the slots at once. Every
// client ends on the table, and the rig's cleanup finds nothing held.
func TestReplaySlotConcurrentJoinsWritesClose(t *testing.T) {
	const n, shards, clients = 1500, 4, 3
	r := newFrameRig(t, muxproto.ModeQuagga, shards, 1)
	r.load(0, n)
	u := r.ups[0]
	cls := make([]*client.Client, clients)
	for k := range cls {
		cls[k], _ = r.join(t, k+1)
	}
	replayAll := func(stop <-chan struct{}) *sync.WaitGroup {
		var wg sync.WaitGroup
		for _, c := range r.srv.clientList() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						r.srv.enqueueReplay(c, u, false)
						r.srv.Stats()
						time.Sleep(time.Millisecond)
					}
				}
			}()
		}
		return &wg
	}
	base := r.srv.Stats()
	stop := make(chan struct{})
	wg := replayAll(stop)
	for round := 0; round < 30; round++ {
		r.feed(1,
			announce(medAttrs(3001, uint32(round)), slotPfx(n+round)),
			announce(medAttrs(3001, 7_000_000+uint32(round)), slotPfx(300+round)),
			withdraw(slotPfx(round)))
		if round == 15 {
			r.srv.ingest.barrier()
			u.adjIn.MarkAllStale()
			r.load(200, n)
			r.srv.flushUpstreamStale(u)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	r.srv.ingest.barrier()
	st := r.srv.Stats()
	if st.ReplaySnapshotBuilds == base.ReplaySnapshotBuilds || st.ReplaySnapshotHits == base.ReplaySnapshotHits {
		t.Fatalf("%d builds and %d hits: the run exercised one path only",
			st.ReplaySnapshotBuilds-base.ReplaySnapshotBuilds, st.ReplaySnapshotHits-base.ReplaySnapshotHits)
	}
	for k, cl := range cls {
		got := r.holds(t, fmt.Sprintf("client %d", k+1), cl)
		if _, ok := got[slotPfx(0)]; ok {
			t.Fatalf("client %d holds %v, withdrawn and swept", k+1, slotPfx(0))
		}
	}
	stop = make(chan struct{})
	wg = replayAll(stop)
	r.srv.Close()
	close(stop)
	wg.Wait()
}

// TestReplaySlotWarmJoinAllocs: queueing a table from warm slots
// allocates per frame at most, never per route.
func TestReplaySlotWarmJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not enforced under -race")
	}
	const n, shards = 20000, 2
	r := newFrameRig(t, muxproto.ModeQuagga, shards, 1)
	r.load(0, n)
	// The client's end stalls once it is in sync, so its flusher parks in
	// the first write and the runs below measure the enqueue alone, not
	// a receiver decoding the table in this process.
	fcSrv, fcCli := faultconn.Pipe(nil)
	cl, _ := r.joinOver(t, 1, fcSrv, fcCli)
	r.holds(t, "joiner", cl)
	fcSrv.Stall()
	c, u := clientByID(r.srv, "exp1"), r.ups[0]
	base := r.srv.Stats()
	const runs = 10
	allocs := testing.AllocsPerRun(runs, func() { r.srv.enqueueReplay(c, u, false) })
	r.wantSlotDelta(t, base, 0, (runs+1)*shards)
	frames := 0
	for i := range u.replay {
		frames += len(u.replay[i].frames)
	}
	if frames < n/snapFrameNLRIs {
		t.Fatalf("%d routes sit in %d slot frames", n, frames)
	}
	if budget := float64(8 * (frames + shards)); allocs > budget {
		t.Fatalf("a warm replay of %d routes in %d frames allocates %.0f times, budget %.0f", n, frames, allocs, budget)
	}
	fcSrv.Reset()
}
