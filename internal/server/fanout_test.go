package server

import (
	"bytes"
	"fmt"
	"maps"
	"net"
	"net/netip"
	"strings"
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
	"peering/internal/router"
	"peering/internal/wire"
)

// Tests for the fan-out pipeline (fanout.go) and for the
// announcement-loss bugs in the client→upstream path: announcements
// made while an upstream is down must be deferred (not penalized and
// not lost), spurious withdrawals must not be relayed or charged, and a
// clean upstream teardown must disarm the restart-window backstop.

func fanoutAttrs(asn uint32) *wire.Attrs {
	return &wire.Attrs{
		Origin:  wire.OriginIGP,
		ASPath:  []wire.Segment{{Type: wire.SegSequence, ASNs: []uint32{asn}}},
		NextHop: addr("80.249.208.10"),
	}
}

// Queue-level helpers: batch entries and a frame built from them.
func ann(p string, a *wire.Attrs) batchEntry {
	return batchEntry{nlri: wire.NLRI{Prefix: prefix(p)}, attrs: a}
}

func wdr(p string) batchEntry { return ann(p, nil) }

func queueFrame(upstream uint32, entries ...batchEntry) *broadcastFrame {
	return newBroadcastFrame(upstream, upstream, 0, entries)
}

// TestOutQueueFrameOrder pins the queue's contract now that frames are
// the only thing it holds: it is a FIFO per shard and never coalesces —
// announce → withdraw → announce of one prefix as three batches-of-one
// drains as three frames in that order (folding happens upstream, in
// the ingest worker) — and a take leaves nothing reachable behind.
func TestOutQueueFrameOrder(t *testing.T) {
	// One shard: exact drain order across prefixes is only defined
	// within a shard.
	q := newOutQueue(0, 1)
	q.beginSync(0, 1)
	q.beginSync(0, 2)
	a1, a2 := fanoutAttrs(100), fanoutAttrs(200)
	const pA = "11.0.0.0/16"

	f1 := queueFrame(1, ann(pA, a1))
	f2 := queueFrame(1, wdr(pA))
	f3 := queueFrame(1, ann(pA, a2))
	for _, f := range []*broadcastFrame{f1, f2, f3} {
		q.putFrame(0, f)
	}
	if d := q.depth(); d != 3 {
		t.Fatalf("depth = %d, want 3: the queue must not fold", d)
	}
	frames, eors, _, _ := q.take(nil, nil)
	if len(frames) != 3 || frames[0] != f1 || frames[1] != f2 || frames[2] != f3 || len(eors) != 0 {
		t.Fatalf("drained %v (eors %v), want the three frames in enqueue order", frames, eors)
	}

	// The same prefix via different upstreams is distinct state, each
	// behind its own frame.
	q.putFrame(0, queueFrame(1, ann(pA, a1)))
	q.putFrame(0, queueFrame(2, ann(pA, a1)))
	frames, _, _, _ = q.take(frames, nil)
	if len(frames) != 2 || frames[0].upstream != 1 || frames[1].upstream != 2 {
		t.Fatalf("cross-upstream drain = %v, want upstream 1 then 2", frames)
	}

	// End-of-RIB markers drain alongside frames, and take empties the
	// queue — including the shard's backing array, or flushed frames
	// (and a joiner's snapshot NLRIs) would stay reachable from it.
	q.putFrame(0, queueFrame(1, ann(pA, a1)))
	q.putEoR(1)
	frames, eors, _, _ = q.take(frames, eors)
	if len(frames) != 1 || len(eors) != 1 || eors[0] != 1 {
		t.Fatalf("frames=%d eors=%v, want 1 frame and EoR for upstream 1", len(frames), eors)
	}
	sh := &q.shards[0]
	for i, f := range sh.frames[:cap(sh.frames)] {
		if f != nil {
			t.Fatalf("shard slot %d still references a taken frame", i)
		}
	}
	if frames, eors, _, _ := q.take(nil, nil); len(frames) != 0 || len(eors) != 0 || q.depth() != 0 {
		t.Fatalf("queue not empty after take: %d frames, %d eors, depth %d", len(frames), len(eors), q.depth())
	}
}

// TestOutQueueFrameShedKeepsWithdrawals pins down how a frame meets
// the laggard cap: a frame arriving at a queue already over its hard
// limit cannot be partially shed, so its announcements drop (counted,
// overflow flagged for the resync) while its withdrawals stay behind
// as a private withdraw-only frame — shedding must never leave a
// client holding a route the world withdrew.
func TestOutQueueFrameShedKeepsWithdrawals(t *testing.T) {
	q := newOutQueue(8, 1)
	q.beginSync(0, 1)
	a := fanoutAttrs(100)
	entries := func(lo, hi int, attrs *wire.Attrs) []batchEntry {
		var es []batchEntry
		for i := lo; i < hi; i++ {
			es = append(es, ann(fmt.Sprintf("96.0.%d.0/24", i), attrs))
		}
		return es
	}

	// A frame bigger than the cap enqueues whole when the queue is
	// empty: frames are all-or-nothing.
	f1 := queueFrame(1, entries(0, 10, a)...)
	q.putFrame(0, f1)
	if d := q.depth(); d != 10 {
		t.Fatalf("depth after frame = %d, want 10 logical ops", d)
	}

	// The queue is now over its cap of 8: the next frame's announcements
	// shed and its withdrawals survive in a frame of their own; the shed
	// frame itself is not queued.
	f2 := queueFrame(1, append(entries(10, 14, a), entries(20, 22, nil)...)...)
	q.putFrame(0, f2)
	if d := q.depth(); d != 12 {
		t.Fatalf("depth after shed = %d, want 10 + 2 withdrawals", d)
	}
	// Pure announcements at the cap leave nothing behind; pure
	// withdrawals are never shed.
	q.putFrame(0, queueFrame(1, entries(30, 33, a)...))
	f4 := queueFrame(1, entries(40, 41, nil)...)
	q.putFrame(0, f4)

	frames, _, ctr, overflow := q.take(nil, nil)
	if !overflow {
		t.Fatal("shed did not flag the queue for resync")
	}
	if ctr.shed != 7 {
		t.Fatalf("shed counter = %d, want the 4 + 3 dropped announcements", ctr.shed)
	}
	if len(frames) != 3 || frames[0] != f1 || frames[2] != f4 {
		t.Fatalf("take returned %v, want [f1, kept withdrawals, f4]", frames)
	}
	if kept := frames[1]; kept == f2 || kept.nlris != 0 || len(kept.wd) != 2 || kept.shared {
		t.Fatalf("kept frame %+v, want a private frame of f2's 2 withdrawals", kept)
	}
}

// TestOutQueueSyncGate pins the replay handoff rule: a fresh queue
// drops live traffic (batches of one and withdraw sweeps alike) until
// beginSync marks the shard walked for that upstream — the walk itself
// delivers every route such a drop carried. The gate is per upstream,
// so one upstream's replay does not open another's, and closing the
// queue shuts every gate for good.
func TestOutQueueSyncGate(t *testing.T) {
	q := newOutQueue(0, 1)
	a := fanoutAttrs(100)
	const pA = "11.0.0.0/16"

	one := queueFrame(1, ann(pA, a)) // a batch of one
	sweep := &broadcastFrame{skey: 1, upstream: 1, wd: []wire.NLRI{{Prefix: prefix(pA)}}}
	q.putFrame(0, one)
	q.putFrame(0, sweep)
	if frames, _, _, _ := q.take(nil, nil); len(frames) != 0 || q.depth() != 0 {
		t.Fatalf("gated queue drained %d frames (depth %d), want none", len(frames), q.depth())
	}

	q.beginSync(0, 1)
	q.putFrame(0, queueFrame(1, ann(pA, a)))
	q.putFrame(0, queueFrame(2, ann(pA, a))) // upstream 2 has not synced: still dropped
	frames, _, _, _ := q.take(nil, nil)
	if len(frames) != 1 || frames[0].upstream != 1 {
		t.Fatalf("post-sync drain = %v, want exactly upstream 1's frame", frames)
	}

	// close drops what is queued and nothing gets in afterwards, not even
	// behind a late beginSync.
	q.putFrame(0, queueFrame(1, ann(pA, a)))
	q.close()
	q.beginSync(0, 1)
	q.putFrame(0, queueFrame(1, ann(pA, a)))
	if frames, _, _, _ := q.take(nil, nil); len(frames) != 0 || q.depth() != 0 {
		t.Fatalf("closed queue holds %d frames (depth %d), want none", len(frames), q.depth())
	}
}

// TestOutQueueBackpressureCounters: depth, high water and backpressure
// count logical routes, whatever the frames' sizes.
func TestOutQueueBackpressureCounters(t *testing.T) {
	q := newOutQueue(0, 1)
	q.beginSync(0, 1)
	a := fanoutAttrs(100)
	// One big frame leaves the queue two routes short of the mark.
	const base = fanoutHighWater - 2
	q.putFrame(0, &broadcastFrame{skey: 1, upstream: 1, nlris: base})
	q.putFrame(0, queueFrame(1, ann("11.0.0.0/16", a)))
	q.putFrame(0, queueFrame(1, ann("11.0.0.0/16", a))) // same prefix again: still a route queued
	q.putFrame(0, queueFrame(1, ann("11.1.0.0/16", a))) // base+3: over the mark
	q.putFrame(0, queueFrame(1, ann("11.2.0.0/16", a), wdr("11.3.0.0/16")))
	_, _, ctr, _ := q.take(nil, nil)
	if ctr.backpressure != 2 {
		t.Fatalf("backpressure = %d, want 2 (the enqueues that found depth 3 and 5 over the mark)", ctr.backpressure)
	}
	if ctr.highWater != base+5 {
		t.Fatalf("highWater = %d, want %d routes", ctr.highWater, base+5)
	}
	if q.depth() != 0 {
		t.Fatalf("depth %d after the drain", q.depth())
	}
}

// writeCounter is a client's transport that counts the write calls its
// mux makes, plain and vectored alike (at entry), and the End-of-RIB
// markers it has finished writing.
type writeCounter struct {
	*faultconn.Conn
	calls, eors atomic.Int32
	// updates and updateBytes count the calls that begin with an UPDATE,
	// and their bytes.
	updates     atomic.Int32
	updateBytes atomic.Int64
}

// update counts a write call of n bytes that begins with first.
func (w *writeCounter) update(first []byte, n int) {
	if len(first) >= wire.HeaderLen && first[wire.HeaderLen-1] == byte(wire.MsgUpdate) {
		w.updates.Add(1)
		w.updateBytes.Add(int64(n))
	}
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.calls.Add(1)
	w.update(p, len(p))
	n, err := w.Conn.Write(p)
	// A marker is an UPDATE with nothing in it, alone in a tunnel frame
	// or, on an upstream's transport, alone in a write.
	if eor := []byte{0, 23, byte(wire.MsgUpdate), 0, 0, 0, 0}; err == nil && (len(p) == 23 || len(p) == 8+23) && bytes.HasSuffix(p, eor) {
		w.eors.Add(1)
	}
	return n, err
}

func (w *writeCounter) WriteBuffers(bufs net.Buffers) (int64, error) {
	w.calls.Add(1)
	if len(bufs) > 0 {
		n := 0
		for _, b := range bufs {
			n += len(b)
		}
		w.update(bufs[0], n)
	}
	return w.Conn.WriteBuffers(bufs)
}

// TestDrainIsOneWritePerSession: a Quagga-mode client's flusher, parked
// in a stalled write while frames from two upstreams queue up behind
// it, sends that backlog as one transport write per session — every
// frame's bytes in order, an announcement and a later withdrawal of the
// same prefix included — and the client ends on both tables.
func TestDrainIsOneWritePerSession(t *testing.T) {
	const k = 6
	r := newFrameRig(t, muxproto.ModeQuagga, 4, 2)
	for u := 1; u <= 2; u++ {
		upd := announce(medAttrs(uint32(3000+u), 1))
		for i := 0; i < 50; i++ {
			upd.Reach = append(upd.Reach, wire.NLRI{Prefix: slotPfx(i)})
		}
		r.feed(u, upd)
	}
	r.srv.ingest.barrier()
	fcSrv, fcCli := faultconn.Pipe(nil)
	wc := &writeCounter{Conn: fcSrv}
	cl, _ := r.joinOver(t, 1, wc, fcCli)
	c := clientByID(r.srv, "exp1")
	holds := func() bool {
		for u := 1; u <= 2; u++ {
			if !maps.Equal(tableOf(t, cl.Routes(uint32(u))), adjInOf(t, r.ups[u-1])) {
				return false
			}
		}
		return true
	}
	// Idle: the joiner holds both tables and both replays' markers are
	// written, so nothing is left for the flusher to write.
	waitFor(t, "the joiner to hold both tables", func() bool {
		return holds() && wc.eors.Load() == 2 && c.out.depth() == 0
	})

	// Park the flusher in a stalled write: an End-of-RIB marker's.
	fcSrv.Stall()
	base := wc.calls.Load()
	c.out.putEoR(1)
	waitFor(t, "the flusher to park in the marker's write", func() bool { return wc.calls.Load() == base+1 })

	// k frames per upstream queue behind it; the fences keep the ingest
	// worker from merging them.
	gone := slotPfx(1000)
	for i := 0; i < k; i++ {
		for u := 1; u <= 2; u++ {
			switch {
			case u == 1 && i == 1:
				r.feed(u, announce(medAttrs(3001, 7), gone))
			case u == 1 && i == 4:
				r.feed(u, withdraw(gone))
			default:
				r.feed(u, announce(medAttrs(uint32(3000+u), uint32(10+i)), slotPfx(100+i)))
			}
			r.srv.ingest.barrier()
		}
	}
	if d := c.out.depth(); d != 2*k {
		t.Fatalf("%d routes queued behind the parked write, want %d frames of one", d, 2*k)
	}

	fcSrv.Unstall()
	waitFor(t, "the client to hold both tables", holds)
	if _, ok := tableOf(t, cl.Routes(1))[gone]; ok {
		t.Fatalf("%v announced and then withdrawn, still held", gone)
	}
	if n := wc.calls.Load() - base; n != 3 {
		t.Fatalf("%d transport writes from the parked marker on, want 3: the marker, then one per session", n)
	}
}

// soloSupervisedRig is the single-upstream, virtual-clock,
// supervised-transport rig shared by the announcement-loss regression
// tests. Dampening is the strict default: the bugs under test charged
// penalties the world should never have seen, and the default
// thresholds are exactly what made them bite. The mux's end of each
// upstream transport it dials counts its writes and takes faults.
type soloSupervisedRig struct {
	clk *clock.Virtual
	srv *Server
	up  *router.Router
	u   *Upstream
	sup *bgp.Supervisor
	cl  *client.Client

	mu        sync.Mutex
	serverEnd *writeCounter
}

func (r *soloSupervisedRig) killTransport() {
	r.mu.Lock()
	conn := r.serverEnd
	r.mu.Unlock()
	conn.Close()
}

func newSoloSupervisedRig(t *testing.T) *soloSupervisedRig {
	t.Helper()
	r := &soloSupervisedRig{clk: clock.NewVirtual(time.Unix(1_700_000_000, 0))}
	r.srv = New(Config{
		Site:      "solo01",
		ASN:       testbedASN,
		RouterID:  addr("184.164.224.1"),
		Mode:      muxproto.ModeQuagga,
		Clock:     r.clk,
		Reconnect: bgp.Backoff{Initial: time.Second, Max: 8 * time.Second, Factor: 2},
	})
	t.Cleanup(r.srv.Close)

	r.up = router.New(router.Config{AS: 3356, RouterID: addr("4.69.0.1"), Clock: r.clk})
	u, err := r.srv.AddUpstream(UpstreamConfig{
		ID: 1, Name: "up1", ASN: 3356,
		PeerAddr: addr("80.249.208.10"), LocalAddr: addr("80.249.208.1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.u = u
	p := r.up.AddPeer(router.PeerConfig{
		Addr: addr("80.249.208.1"), LocalAddr: addr("80.249.208.10"), AS: testbedASN,
	})
	dial := func() (net.Conn, error) {
		ca, cb := bufconn.Pipe()
		wc := &writeCounter{Conn: faultconn.Wrap(ca, r.clk)}
		r.mu.Lock()
		r.serverEnd = wc
		r.mu.Unlock()
		r.up.Attach(p, cb)
		return wc, nil
	}
	r.sup = r.srv.AttachUpstreamSupervised(u, dial)
	waitFor(t, "upstream session", func() bool { return u.Established() })

	if err := r.srv.RegisterClient(ClientAccount{
		ID: "exp1", Allocation: clientAlloc(), TunnelAddr: addr("10.250.0.1"),
	}); err != nil {
		t.Fatal(err)
	}
	ca, cb := bufconn.Pipe()
	if err := r.srv.AcceptClient("exp1", ca); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Connect(client.Config{Name: "exp1", RouterID: addr("10.250.0.1"), Clock: r.clk}, cb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.WaitEstablished(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	r.cl = cl
	return r
}

// advertisedHas reports whether the upstream's advert book-keeping holds
// p for owner.
func advertisedHas(u *Upstream, p netip.Prefix, owner string) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	ad := u.advertised[p]
	return ad != nil && ad.owner == owner
}

// TestAnnounceWhileUpstreamDownDeferredNotPenalized is the regression
// test for announcement loss bug #1: announcements arriving while the
// upstream session is down used to be charged to the damper (three
// announcements crossed the default suppress threshold, silently
// discarding the route) even though nothing could reach the wire. They
// must instead be recorded for replay, penalty-free, and delivered when
// the supervisor brings the session back.
func TestAnnounceWhileUpstreamDownDeferredNotPenalized(t *testing.T) {
	r := newSoloSupervisedRig(t)
	clientPfx := prefix("184.164.224.0/24")
	marker := prefix("184.164.224.0/25")
	key := dampen.Key{Prefix: clientPfx, Source: addr("10.250.0.1")}

	r.killTransport()
	waitFor(t, "upstream death noticed", func() bool {
		return r.sup.Stats().ConsecutiveFailures == 1
	})

	// Re-announce the same prefix three times while the upstream is
	// down. Client-session handling is serialized, so the marker
	// announcement proves all three were processed.
	for i := 0; i < 3; i++ {
		if err := r.cl.Announce(clientPfx, client.AnnounceOptions{Upstreams: []uint32{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.cl.Announce(marker, client.AnnounceOptions{Upstreams: []uint32{1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "announcements recorded for replay", func() bool {
		return advertisedHas(r.u, clientPfx, "exp1") && advertisedHas(r.u, marker, "exp1")
	})

	if pen := penaltyOf(r.srv.Upstream(1), key); pen != 0 {
		t.Fatalf("announcing while the upstream is down charged penalty %v", pen)
	}
	st := r.srv.Stats()
	if st.FlapsSuppressed != 0 {
		t.Fatalf("FlapsSuppressed = %d while nothing reached the wire", st.FlapsSuppressed)
	}
	if st.AnnouncementsRelayed != 0 {
		t.Fatalf("AnnouncementsRelayed = %d with the upstream down", st.AnnouncementsRelayed)
	}

	// Redial timer was armed at death + 1s backoff. Recovery must replay
	// the deferred announcements.
	r.clk.Advance(1100 * time.Millisecond)
	waitFor(t, "deferred announcements reach the upstream", func() bool {
		return r.u.Established() &&
			r.up.LocRIB().Best(clientPfx) != nil &&
			r.up.LocRIB().Best(marker) != nil
	})
	if pen := penaltyOf(r.srv.Upstream(1), key); pen != 0 {
		t.Fatalf("replay on recovery charged penalty %v", pen)
	}
	if st := r.srv.Stats(); st.FlapsSuppressed != 0 {
		t.Fatalf("FlapsSuppressed = %d after recovery", st.FlapsSuppressed)
	}
}

// TestUnencodableAdvertDoesNotFlapUpstream: a client announcement whose
// vetted attributes stop fitting a message (the testbed ASN prepended
// pushes them over) never reaches the upstream and stays pending. After
// a transport reset the upstream's Established replay refuses it and
// goes on, so the peering recovers once and stays up, with the client's
// other prefix and End-of-RIB delivered.
func TestUnencodableAdvertDoesNotFlapUpstream(t *testing.T) {
	r := newSoloSupervisedRig(t)
	good, bad := prefix("184.164.224.0/27"), prefix("184.164.224.32/27")
	if err := r.cl.Announce(good, client.AnnounceOptions{Upstreams: []uint32{1}}); err != nil {
		t.Fatal(err)
	}
	// What the client sends, and what vetting makes of it toward the
	// upstream: the same attributes behind one more AS.
	sent := &wire.Attrs{Origin: wire.OriginIGP, NextHop: addr("10.250.0.1"),
		ASPath: []wire.Segment{{Type: wire.SegSequence, ASNs: []uint32{174, testbedASN}}}}
	vetted := &wire.Attrs{Origin: wire.OriginIGP, NextHop: addr("80.249.208.1"),
		ASPath: []wire.Segment{{Type: wire.SegSequence, ASNs: []uint32{testbedASN, 174, testbedASN}}}}
	for i := 0; ; i++ {
		if _, err := wire.AppendMessage(nil, announce(vetted, bad), wire.DefaultOptions); err != nil {
			break
		}
		sent.AddCommunity(wire.MakeCommunity(65000, uint16(i)))
		vetted.AddCommunity(wire.MakeCommunity(65000, uint16(i)))
	}
	if _, err := wire.AppendMessage(nil, announce(sent, bad), wire.DefaultOptions); err != nil {
		t.Fatalf("the client's announcement does not fit either: %v", err)
	}
	if err := r.cl.Relay(1, announce(sent, bad)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both prefixes booked, the good one at the upstream", func() bool {
		return advertisedHas(r.u, bad, "exp1") && r.up.LocRIB().Best(good) != nil
	})
	if r.up.LocRIB().Best(bad) != nil {
		t.Fatal("the upstream holds the prefix that does not encode")
	}

	r.mu.Lock()
	r.serverEnd.Reset()
	r.mu.Unlock()
	waitFor(t, "the reset noticed", func() bool { return r.sup.Stats().ConsecutiveFailures == 1 })
	for i := 0; i < 5; i++ {
		// Each step outlasts the 1 s backoff that follows a fresh failure,
		// and a replay that reset the session again has done so by the next.
		r.clk.Advance(1100 * time.Millisecond)
		time.Sleep(20 * time.Millisecond)
	}
	r.mu.Lock()
	end := r.serverEnd
	r.mu.Unlock()
	waitFor(t, "the peering back with the good prefix and End-of-RIB", func() bool {
		return r.u.Established() && r.up.LocRIB().Best(good) != nil && end.eors.Load() == 1
	})
	if st := r.sup.Stats(); st.Recoveries != 1 || st.ConsecutiveFailures != 0 {
		t.Fatalf("%d recoveries, %d consecutive failures after one reset; want 1, 0", st.Recoveries, st.ConsecutiveFailures)
	}
}

// TestAnnounceBurstSendFailureStaysPending: a read burst whose one
// write to the upstream fails leaves every announcement in it recorded
// pending, charged to the damper as the per-UPDATE path charges a
// relayed announcement — once, with no penalty for the failure — and
// each converges exactly once, on the upstream's Established replay.
func TestAnnounceBurstSendFailureStaysPending(t *testing.T) {
	r := newSoloSupervisedRig(t)
	const n = 8
	var burst []*wire.Update
	var pfxs []netip.Prefix
	for i := 0; i < n; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{184, 164, 224, byte(32 * i)}), 27)
		pfxs = append(pfxs, p)
		burst = append(burst, &wire.Update{Attrs: clientAttrs(testbedASN), Reach: []wire.NLRI{{Prefix: p}}})
	}
	h := &clientSessHandler{srv: r.srv, c: clientByID(r.srv, "exp1"), upstream: r.u}
	baseCount, _ := r.srv.ConvergenceSamples()

	// Park the burst's write, then fail it.
	r.mu.Lock()
	wc := r.serverEnd
	r.mu.Unlock()
	wc.Stall()
	base := wc.calls.Load()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.UpdateBatchReceived(nil, burst)
	}()
	waitFor(t, "the burst's write to park", func() bool { return wc.calls.Load() == base+1 })
	wc.Reset()
	<-done
	if got := wc.calls.Load() - base; got != 1 {
		t.Fatalf("the burst took %d writes, want 1", got)
	}

	// The replay charges nothing: all that is left is the one
	// announcement's 1000, decayed by the redial's second.
	penalties := func(when string, least float64) {
		t.Helper()
		for _, p := range pfxs {
			if pen := penaltyOf(r.u, dampen.Key{Prefix: p, Source: addr("10.250.0.1")}); pen > 1000 || pen < least {
				t.Fatalf("%s: %v charged %v, want the 1000 of one announcement", when, p, pen)
			}
		}
	}
	for _, p := range pfxs {
		if got := upstreamAdverts(r.u)[p]; got != "exp1 [47065] 80.249.208.1 pending" {
			t.Fatalf("after the failed write %v is %q, want it recorded pending", p, got)
		}
	}
	penalties("after the failed write", 1000)
	if st := r.srv.Stats(); st.AnnouncementsRelayed != 0 || st.FlapsSuppressed != 0 {
		t.Fatalf("after the failed write: relayed %d, suppressed %d; want 0, 0", st.AnnouncementsRelayed, st.FlapsSuppressed)
	}
	if count, _ := r.srv.ConvergenceSamples(); count != baseCount {
		t.Fatalf("%d announcements observed converged before any reached the wire", count-baseCount)
	}

	waitFor(t, "upstream death noticed", func() bool { return r.sup.Stats().ConsecutiveFailures == 1 })
	r.clk.Advance(1100 * time.Millisecond)
	waitFor(t, "the burst at the upstream", func() bool {
		for _, p := range pfxs {
			if r.up.LocRIB().Best(p) == nil {
				return false
			}
		}
		return true
	})
	waitFor(t, "the replay's observations", func() bool {
		count, _ := r.srv.ConvergenceSamples()
		return count >= baseCount+n
	})
	if count, _ := r.srv.ConvergenceSamples(); count != baseCount+n {
		t.Fatalf("%d convergence observations for %d announcements", count-baseCount, n)
	}
	for _, p := range pfxs {
		if got := upstreamAdverts(r.u)[p]; got != "exp1 [47065] 80.249.208.1" {
			t.Fatalf("after the replay %v is %q, want it sent", p, got)
		}
	}
	penalties("after the replay", 999)
}

// TestEstablishedReplayIsFewWrites: 1 000 adverts over 3 attribute sets,
// accepted while the upstream was down, go out on its Established
// replay in at most ⌈bytes / 64 KiB⌉ + 1 transport writes, End-of-RIB
// included, and each converges exactly once.
func TestEstablishedReplayIsFewWrites(t *testing.T) {
	const n = 1000
	r := newSoloSupervisedRig(t)
	if err := r.srv.RegisterClient(ClientAccount{
		ID: "exp2", Allocation: []netip.Prefix{prefix("10.0.0.0/8")}, TunnelAddr: addr("10.250.0.2"),
	}); err != nil {
		t.Fatal(err)
	}
	ca, cb := bufconn.Pipe()
	if err := r.srv.AcceptClient("exp2", ca); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Connect(client.Config{Name: "exp2", RouterID: addr("10.250.0.2"), Clock: r.clk}, cb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.WaitEstablished(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	r.killTransport()
	waitFor(t, "upstream death noticed", func() bool { return r.sup.Stats().ConsecutiveFailures == 1 })
	var burst []*wire.Update
	var pfxs []netip.Prefix
	for i := 0; i < n; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i / 256), byte(i), 0}), 24)
		attrs := clientAttrs(testbedASN)
		attrs.Communities = []wire.Community{wire.MakeCommunity(65000, uint16(i%3))}
		pfxs = append(pfxs, p)
		burst = append(burst, &wire.Update{Attrs: attrs, Reach: []wire.NLRI{{Prefix: p}}})
	}
	h := &clientSessHandler{srv: r.srv, c: clientByID(r.srv, "exp2"), upstream: r.u}
	h.UpdateBatchReceived(nil, burst)
	pending := func() (k int) {
		for _, ad := range upstreamAdverts(r.u) {
			if strings.HasSuffix(ad, " pending") {
				k++
			}
		}
		return k
	}
	if got := pending(); got != n {
		t.Fatalf("%d adverts pending with the upstream down, want %d", got, n)
	}
	baseCount, _ := r.srv.ConvergenceSamples()

	r.clk.Advance(1100 * time.Millisecond)
	waitFor(t, "the replay and End-of-RIB at the upstream", func() bool {
		r.mu.Lock()
		end := r.serverEnd
		r.mu.Unlock()
		if end.eors.Load() != 1 {
			return false
		}
		for _, p := range pfxs {
			if r.up.LocRIB().Best(p) == nil {
				return false
			}
		}
		return true
	})
	r.mu.Lock()
	end := r.serverEnd
	r.mu.Unlock()
	writes, size := end.updates.Load(), end.updateBytes.Load()
	if most := (size+64<<10-1)/(64<<10) + 1; int64(writes) > most {
		t.Fatalf("the replay took %d writes for %d bytes, want at most %d", writes, size, most)
	}
	if count, _ := r.srv.ConvergenceSamples(); count != baseCount+n {
		t.Fatalf("%d convergence observations for %d pending adverts", count-baseCount, n)
	}
	if got := pending(); got != 0 {
		t.Fatalf("%d adverts still pending after the replay", got)
	}
}

// upstreamSess reads the server-side session toward an upstream.
func upstreamSess(s *Server, id uint32) *bgp.Session {
	u := s.Upstream(id)
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.sess
}

// TestSpuriousWithdrawNotRelayedOrPenalized is the regression test for
// announcement loss bug #2: withdrawing a prefix the client never
// announced used to be relayed upstream AND charged to the damper —
// two spurious withdrawals later, the client's first real announcement
// was suppressed. A withdrawal of a prefix not in the advert map must
// be a no-op on both counts.
func TestSpuriousWithdrawNotRelayedOrPenalized(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	clientPfx := prefix("184.164.224.0/24")
	marker := prefix("184.164.224.0/25")
	key := dampen.Key{Prefix: clientPfx, Source: addr("10.250.0.1")}

	sess := upstreamSess(r.srv, 1)
	base := sess.SentUpdates()

	// Two withdrawals of a prefix that was never announced. With the
	// default damper config these alone used to bank a penalty of 2000 —
	// exactly the suppress threshold.
	for i := 0; i < 2; i++ {
		if err := cl.Withdraw(clientPfx, []uint32{1}); err != nil {
			t.Fatal(err)
		}
	}
	// Marker announcement on the same session: once it lands at the
	// upstream, both withdrawals have been processed.
	if err := cl.Announce(marker, client.AnnounceOptions{Upstreams: []uint32{1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "marker at upstream", func() bool {
		return r.up1.LocRIB().Best(marker) != nil
	})

	if got := sess.SentUpdates(); got != base+1 {
		t.Fatalf("upstream saw %d UPDATEs, want 1 (the marker): spurious withdrawals were relayed", got-base)
	}
	if pen := penaltyOf(r.srv.Upstream(1), key); pen != 0 {
		t.Fatalf("spurious withdrawals charged penalty %v", pen)
	}

	// The first real announcement must not be suppressed.
	if err := cl.Announce(clientPfx, client.AnnounceOptions{Upstreams: []uint32{1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "real announcement at upstream", func() bool {
		return r.up1.LocRIB().Best(clientPfx) != nil
	})
	if st := r.srv.Stats(); st.FlapsSuppressed != 0 {
		t.Fatalf("FlapsSuppressed = %d; the real announcement was charged for spurious withdrawals", st.FlapsSuppressed)
	}
}

// TestCleanTeardownStopsStaleTimer is the regression test for bug #3:
// the clean-teardown branch of handleUpstreamDown cleared the
// Adj-RIB-In but left the restart-window backstop armed. The leaked
// timer would fire into a future restart window and disarm it. The
// virtual clock counts armed timers, so the leak is directly
// observable.
func TestCleanTeardownStopsStaleTimer(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	srv := New(Config{
		Site:     "solo02",
		ASN:      testbedASN,
		RouterID: addr("184.164.224.1"),
		Mode:     muxproto.ModeQuagga,
		Clock:    clk,
	})
	t.Cleanup(srv.Close)
	u, err := srv.AddUpstream(UpstreamConfig{
		ID: 1, Name: "up1", ASN: 3356,
		PeerAddr: addr("80.249.208.10"), LocalAddr: addr("80.249.208.1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	peerCfg := bgp.Config{
		LocalAS: 3356, LocalID: addr("4.69.0.1"), PeerAS: testbedASN, Clock: clk,
	}

	// Raw peer that announces two prefixes but never sends End-of-RIB
	// (End-of-RIB would flush the stale state and disarm the timer
	// through the legitimate path, masking the leak).
	annUpd := &wire.Update{
		Reach: []wire.NLRI{{Prefix: prefix("11.0.0.0/16")}, {Prefix: prefix("11.1.0.0/16")}},
		Attrs: fanoutAttrs(3356),
	}
	ca, cb := bufconn.Pipe()
	sess1 := srv.AttachUpstream(u, ca)
	peer1 := bgp.New(cb, peerCfg, bgp.HandlerFuncs{
		OnEstablished: func(s *bgp.Session) { s.Send(annUpd) },
	})
	go peer1.Run()
	waitFor(t, "routes in adj-rib-in", func() bool { return u.RoutesIn() == 2 })

	// Abrupt transport death: unclean loss arms the restart-window
	// backstop.
	ca.Close()
	waitFor(t, "stale retention", func() bool {
		return srv.Stats().StaleRoutesRetained == 2
	})
	waitFor(t, "both sessions down", func() bool {
		select {
		case <-sess1.Done():
		default:
			return false
		}
		select {
		case <-peer1.Done():
			return true
		default:
			return false
		}
	})
	// Dead sessions stop their hold/keepalive timers, so exactly the
	// backstop remains armed.
	waitFor(t, "only the restart-window backstop armed", func() bool {
		return clk.PendingTimers() == 1
	})

	// The peer comes back but re-announces nothing and sends no
	// End-of-RIB, then says a clean goodbye (Cease). The clean-teardown
	// path clears the Adj-RIB-In — and must also disarm the backstop.
	ca2, cb2 := bufconn.Pipe()
	sess2 := srv.AttachUpstream(u, ca2)
	peer2 := bgp.New(cb2, peerCfg, bgp.HandlerFuncs{})
	go peer2.Run()
	waitFor(t, "session re-established", func() bool { return u.Established() })

	peer2.Close()
	waitFor(t, "clean teardown complete", func() bool {
		select {
		case <-sess2.Done():
			return true
		default:
			return false
		}
	})
	waitFor(t, "restart-window backstop disarmed", func() bool {
		return clk.PendingTimers() == 0
	})

	// And the window closing later must be a no-op, not a flush of a
	// table that no longer exists.
	clk.Advance(DefaultRestartWindow + time.Minute)
	if st := srv.Stats(); st.StaleRoutesFlushed != 0 {
		t.Fatalf("StaleRoutesFlushed = %d after clean teardown", st.StaleRoutesFlushed)
	}
}

// TestFanoutConvergesThroughFlaps is the end-to-end fold-correctness
// test: a burst of announce/withdraw/announce churn for one prefix may
// fold arbitrarily in the ingest workers' batches, but every client
// must converge to the final state, whichever it is.
func TestFanoutConvergesThroughFlaps(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	p := prefix("11.0.0.0/16")

	// End announced.
	for i := 0; i < 25; i++ {
		r.up1.Announce(p, router.AnnounceSpec{Prepend: i % 3})
		if i%2 == 1 {
			r.up1.Withdraw(p)
		}
	}
	r.up1.Announce(p, router.AnnounceSpec{Prepend: 2})
	waitFor(t, "client converges to announced", func() bool {
		rt := cl.RoutesFor(p)[1]
		return rt != nil && rt.Attrs.PathLen() == 3
	})

	// End withdrawn.
	for i := 0; i < 25; i++ {
		r.up1.Withdraw(p)
		r.up1.Announce(p, router.AnnounceSpec{})
	}
	r.up1.Withdraw(p)
	waitFor(t, "client converges to withdrawn", func() bool {
		return cl.RoutesFor(p)[1] == nil
	})
}

// TestConcurrentReplayAndChurn races late-joining clients' replays
// against live upstream churn. Under -race this also exercises the
// attribute-aliasing contract (bug #4): one *wire.Attrs rides the
// Adj-RIB-In and every client's queue concurrently, and the packer
// must treat it as immutable.
func TestConcurrentReplayAndChurn(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	stable := make([]netip.Prefix, 50)
	churn := make([]netip.Prefix, 50)
	for i := range stable {
		stable[i] = prefix(fmt.Sprintf("11.0.%d.0/24", i))
		churn[i] = prefix(fmt.Sprintf("12.0.%d.0/24", i))
	}
	for _, p := range stable {
		r.up1.Announce(p, router.AnnounceSpec{})
	}
	waitFor(t, "stable routes in adj-rib-in", func() bool {
		return r.srv.Upstream(1).RoutesIn() == len(stable)
	})
	cl1 := r.connectClient(t, "exp1", clientAlloc(), false)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 3; round++ {
			for _, p := range churn {
				r.up1.Announce(p, router.AnnounceSpec{Prepend: round})
			}
			for _, p := range churn {
				r.up1.Withdraw(p)
			}
		}
		for _, p := range churn {
			r.up1.Announce(p, router.AnnounceSpec{})
		}
	}()

	// Two more clients replay the table while the churn runs.
	cl2 := r.connectClient(t, "exp2", []netip.Prefix{prefix("184.164.225.0/24")}, false)
	cl3 := r.connectClient(t, "exp3", []netip.Prefix{prefix("184.164.226.0/24")}, false)
	<-done

	want := len(stable) + len(churn)
	waitFor(t, "all clients converge", func() bool {
		return cl1.RouteCount(1) == want && cl2.RouteCount(1) == want && cl3.RouteCount(1) == want
	})
}
