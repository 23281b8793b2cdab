package server

// Tests for the announce direction (announce.go): one handler for both
// mux modes, vetting once per UPDATE, nothing retained per
// announcement. The allocation budget and BenchmarkAnnounceVetting sit
// beside TestRelayHotPathAllocs and BenchmarkRelayHotPath, the other
// direction's pair.

import (
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peering/internal/bufconn"
	"peering/internal/client"
	"peering/internal/clock"
	"peering/internal/dampen"
	"peering/internal/faultconn"
	"peering/internal/muxproto"
	"peering/internal/router"
	"peering/internal/wire"
)

// quietPeer completes the OPEN exchange on conn by hand (hold time 0, so
// neither side owes keepalives) and then takes in whatever the mux
// sends without answering: into heard when it is set, else nowhere, so
// that a measurement of the announce path counts the mux's own work and
// not a peer's decoder.
func quietPeer(tb testing.TB, conn net.Conn, as uint16, id netip.Addr, heard *heardLog) {
	go func() {
		if _, err := wire.ReadMessage(conn, wire.DefaultOptions); err != nil {
			tb.Errorf("quiet peer: read OPEN: %v", err)
			return
		}
		for _, m := range []wire.Message{&wire.Open{AS: as, BGPID: id}, &wire.Keepalive{}} {
			b, err := wire.Marshal(m, wire.DefaultOptions)
			if err == nil {
				_, err = conn.Write(b)
			}
			if err != nil {
				tb.Errorf("quiet peer: handshake: %v", err)
				return
			}
		}
		if heard == nil {
			io.Copy(io.Discard, conn)
			return
		}
		for {
			m, err := wire.ReadMessage(conn, wire.DefaultOptions)
			if err != nil {
				return
			}
			if upd, ok := m.(*wire.Update); ok {
				heard.apply(upd)
			}
		}
	}()
}

// heardLog is what an upstream peer heard, in order: one line per NLRI,
// "-prefix" or "+prefix path next-hop".
type heardLog struct {
	mu      sync.Mutex
	updates int
	lines   []string
}

func (h *heardLog) apply(upd *wire.Update) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.updates++
	for _, n := range upd.Withdrawn {
		h.lines = append(h.lines, fmt.Sprintf("-%v", n.Prefix))
	}
	for _, n := range upd.Reach {
		h.lines = append(h.lines, fmt.Sprintf("+%v [%s] %v", n.Prefix, upd.Attrs.PathString(), upd.Attrs.NextHop))
	}
}

// snapshot reports how many UPDATEs the peer heard and what they said.
func (h *heardLog) snapshot() (int, string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.updates, strings.Join(h.lines, ", ")
}

// announceRig is a mux with n upstreams behind quiet peers, the policy
// of the relay benchmarks loaded, and one connected client that owns
// 10.0.0.0/8 (benchPrefix's world). Tests drive its sessions' handlers
// directly, with bursts shaped as the session readers would hand them
// over.
type announceRig struct {
	srv *Server
	c   *clientConn
	ups []*Upstream
	// wcs counts each upstream session's transport writes; heard is what
	// each upstream peer heard (nil unless asked for).
	wcs   []*writeCounter
	heard []*heardLog
	// handlers are c's session handlers, by the upstream each session
	// stands for (nil: the BIRD-mode session).
	handlers map[*Upstream]*clientSessHandler
}

func newAnnounceRig(tb testing.TB, mode muxproto.Mode, n int, quota QuotaConfig) *announceRig {
	return newAnnounceRigWith(tb, Config{Mode: mode, Quota: quota}, n, false)
}

// newAnnounceRigWith is newAnnounceRig on cfg's mode, quota and clock.
// With hear set each upstream peer keeps a log of what it heard.
func newAnnounceRigWith(tb testing.TB, cfg Config, n int, hear bool) *announceRig {
	tb.Helper()
	cfg.Site, cfg.ASN, cfg.RouterID = "announce01", testbedASN, addr("184.164.224.1")
	cfg.Policy, cfg.Dampening = testPolicy(), relaxedDampening()
	r := &announceRig{srv: newCheckedServer(tb, cfg), handlers: make(map[*Upstream]*clientSessHandler)}
	for i := 1; i <= n; i++ {
		u, err := r.srv.AddUpstream(UpstreamConfig{
			ID: uint32(i), Name: fmt.Sprintf("up%d", i), ASN: 3356,
			PeerAddr: addr(fmt.Sprintf("80.249.208.%d", 10*i)), LocalAddr: addr(fmt.Sprintf("80.249.208.%d", i)),
		})
		if err != nil {
			tb.Fatal(err)
		}
		var heard *heardLog
		if hear {
			heard = new(heardLog)
		}
		ca, cb := bufconn.Pipe()
		wc := &writeCounter{Conn: faultconn.Wrap(ca, nil)}
		quietPeer(tb, cb, 3356, addr(fmt.Sprintf("4.69.0.%d", i)), heard)
		r.srv.AttachUpstream(u, wc)
		waitFor(tb, "upstream session", u.Established)
		r.ups, r.wcs, r.heard = append(r.ups, u), append(r.wcs, wc), append(r.heard, heard)
	}
	var cl *client.Client
	r.c, cl = r.connect(tb, ClientAccount{
		ID: "exp1", Allocation: []netip.Prefix{prefix("10.0.0.0/8")}, TunnelAddr: addr("10.250.0.1"),
	})
	// The client has sent each session's establish-time end-of-RIB, but
	// the mux may not have handled it yet — and handled late, it flushes
	// whatever a test has marked stale by then. A session's reader counts
	// a message before handling it and handles one at a time, so once
	// the mux has counted a second UPDATE on every session the markers
	// are behind it. The second is a withdrawal of a prefix never
	// announced, which changes nothing whenever it is handled.
	if err := cl.Withdraw(prefix("10.255.255.0/24"), nil); err != nil {
		tb.Fatal(err)
	}
	sessions := uint64(n)
	if cfg.Mode == muxproto.ModeBIRD {
		sessions = 1
	}
	waitFor(tb, "the client's end-of-RIB markers handled", func() bool {
		return r.srv.metrics.bgp.MsgsIn.With("update").Value() == 2*sessions
	})
	return r
}

// connect registers acct and connects a client for it, returning both
// ends once every session is established.
func (r *announceRig) connect(tb testing.TB, acct ClientAccount) (*clientConn, *client.Client) {
	tb.Helper()
	if err := r.srv.RegisterClient(acct); err != nil {
		tb.Fatal(err)
	}
	ca, cb := bufconn.Pipe()
	if err := r.srv.AcceptClient(acct.ID, ca); err != nil {
		tb.Fatal(err)
	}
	cl, err := client.Connect(client.Config{Name: acct.ID, RouterID: acct.TunnelAddr}, cb)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	if err := cl.WaitEstablished(10 * time.Second); err != nil {
		tb.Fatal(err)
	}
	return clientByID(r.srv, acct.ID), cl
}

// handler returns the handler of the client's session that stands for
// u (nil: the BIRD-mode session).
func (r *announceRig) handler(u *Upstream) *clientSessHandler {
	h := r.handlers[u]
	if h == nil {
		h = &clientSessHandler{srv: r.srv, c: r.c, upstream: u}
		r.handlers[u] = h
	}
	return h
}

// deliver hands the mux client UPDATEs as one read burst: whole in BIRD
// mode, where path IDs name the upstreams; in Quagga mode each UPDATE is
// split into one per upstream with the IDs gone, as that upstream's
// session would carry it, and each session's share is its burst.
// Refresh and End-of-RIB markers reach every session.
func (r *announceRig) deliver(upds ...*wire.Update) {
	if r.srv.cfg.Mode == muxproto.ModeBIRD {
		r.handler(nil).UpdateBatchReceived(nil, upds)
		return
	}
	for _, u := range r.ups {
		var share []*wire.Update
		for _, upd := range upds {
			if upd.Refresh || upd.IsEndOfRIB() {
				share = append(share, &wire.Update{Refresh: upd.Refresh})
				continue
			}
			part := &wire.Update{Attrs: upd.Attrs}
			for _, n := range upd.Withdrawn {
				if uint32(n.ID) == u.cfg.ID {
					part.Withdrawn = append(part.Withdrawn, wire.NLRI{Prefix: n.Prefix})
				}
			}
			for _, n := range upd.Reach {
				if uint32(n.ID) == u.cfg.ID {
					part.Reach = append(part.Reach, wire.NLRI{Prefix: n.Prefix})
				}
			}
			if len(part.Withdrawn)+len(part.Reach) > 0 {
				share = append(share, part)
			}
		}
		if len(share) > 0 {
			r.handler(u).UpdateBatchReceived(nil, share)
		}
	}
}

// clientAttrs is what client.Client builds for a plain announcement.
func clientAttrs(path ...uint32) *wire.Attrs {
	return &wire.Attrs{
		Origin:  wire.OriginIGP,
		ASPath:  []wire.Segment{{Type: wire.SegSequence, ASNs: path}},
		NextHop: addr("10.250.0.1"),
	}
}

// to addresses prefix p to the upstreams with the given IDs.
func to(p netip.Prefix, ids ...uint32) []wire.NLRI {
	var out []wire.NLRI
	for _, id := range ids {
		out = append(out, wire.NLRI{Prefix: p, ID: wire.PathID(id)})
	}
	return out
}

// announceCycles is the measured operation of the allocation budget and
// of BenchmarkAnnounceVetting: BIRD-mode announcements of fresh prefixes
// to two upstreams, delivered as one burst, then their withdrawals as
// another — one cycle per prefix. The UPDATEs are reused from run to run
// — the handler retains nothing of an UPDATE it was given — so what is
// counted is the mux's work alone.
type announceCycles struct {
	h       *clientSessHandler
	ann, wd []*wire.Update
}

// cycles makes the bursts of n cycles each.
func (r *announceRig) cycles(n int) *announceCycles {
	c := &announceCycles{h: r.handler(nil)}
	for range n {
		c.ann = append(c.ann, &wire.Update{Attrs: clientAttrs(testbedASN), Reach: to(netip.Prefix{}, 1, 2)})
		c.wd = append(c.wd, &wire.Update{Withdrawn: to(netip.Prefix{}, 1, 2)})
	}
	return c
}

// run makes the cycles of the prefixes from the i-th on.
func (c *announceCycles) run(i int) {
	for k := range c.ann {
		p := benchPrefix((i + k) & 0xffffff)
		for j := range c.ann[k].Reach {
			c.ann[k].Reach[j].Prefix, c.wd[k].Withdrawn[j].Prefix = p, p
		}
	}
	c.h.UpdateBatchReceived(nil, c.ann)
	c.h.UpdateBatchReceived(nil, c.wd)
}

// TestAnnounceHotPathAllocs is the announce direction's allocation
// budget: announcing one prefix to two upstreams and withdrawing it
// again may allocate the two adverts, the vetted AS path, and the
// amortised growth of the advert and dampening tables — 8 per cycle as
// measured on bursts of one, against 55 before the per-UPDATE path was
// reworked. A read burst of 64 UPDATEs is held to the same budget per
// cycle: its scratch is reused, and its encoding is one pooled buffer.
// Skipped under -race, whose instrumentation allocates on its own.
func TestAnnounceHotPathAllocs(t *testing.T) {
	for _, burst := range []int{1, 64} {
		t.Run(fmt.Sprintf("burst=%d", burst), func(t *testing.T) {
			r := newAnnounceRig(t, muxproto.ModeBIRD, 2, QuotaConfig{})
			c := r.cycles(burst)
			i := 0
			for ; i < 4096; i += burst { // warm the tables, the intern table and the buffer pool
				c.run(i)
			}
			allocs := testing.AllocsPerRun(max(2000/burst, 50), func() {
				c.run(i)
				i += burst
			}) / float64(burst)
			t.Logf("announce + withdraw to 2 upstreams, bursts of %d: %.1f allocs per cycle", burst, allocs)
			st := r.srv.Stats()
			if want := uint64(2 * i); st.AnnouncementsRelayed != want || st.FlapsSuppressed != 0 || st.PolicyAccepted != want {
				t.Fatalf("relayed %d, suppressed %d, verdicts %d; want %d, 0, %d", st.AnnouncementsRelayed, st.FlapsSuppressed, st.PolicyAccepted, want, want)
			}
			const budget = 12
			if !raceEnabled && allocs > budget {
				t.Errorf("announce path allocates %.1f times per cycle, budget %d", allocs, budget)
			}
		})
	}
}

// BenchmarkAnnounceVetting reports ns/op, B/op and allocs/op for one
// announce + withdraw cycle of a fresh prefix toward two upstreams in
// BIRD mode — demux, VerdictPath, allocation and origin checks, quota,
// dampening, attribute hygiene, the advert table, encode and send — on
// bursts of one UPDATE and on read bursts of 64.
func BenchmarkAnnounceVetting(b *testing.B) {
	for _, burst := range []int{1, 64} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			r := newAnnounceRig(b, muxproto.ModeBIRD, 2, QuotaConfig{})
			c := r.cycles(burst)
			c.run(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := burst; i < b.N+burst; i += burst {
				c.run(i)
			}
		})
	}
}

// TestAnnouncementRetainsNothing: once a prefix has been announced and
// withdrawn again, nothing in the mux may still reference the attribute
// set the client's UPDATE was decoded into — not the policy filter's
// path memo (which pinned every one of them until the next reload at
// the parent commit), not the intern table, not the dampener, and not
// the burst scratch a session's handler reuses: the announcements go in
// one burst and the withdrawals in one UPDATE, whose burst of one leaves
// the rest of the scratch as the announcements left it.
func TestAnnouncementRetainsNothing(t *testing.T) {
	for _, mode := range []muxproto.Mode{muxproto.ModeQuagga, muxproto.ModeBIRD} {
		t.Run(string(mode), func(t *testing.T) {
			r := newAnnounceRig(t, mode, 2, QuotaConfig{})
			const n = 64
			var collected atomic.Int32
			var anns []*wire.Update
			wd := &wire.Update{}
			for i := 0; i < n; i++ {
				attrs := clientAttrs(testbedASN, 64512+uint32(i%4))
				attrs.Communities = []wire.Community{wire.MakeCommunity(47065, uint16(i%8))}
				runtime.SetFinalizer(attrs, func(*wire.Attrs) { collected.Add(1) })
				anns = append(anns, &wire.Update{Attrs: attrs, Reach: to(benchPrefix(i), 1, 2)})
				wd.Withdrawn = append(wd.Withdrawn, to(benchPrefix(i), 1, 2)...)
			}
			r.deliver(anns...)
			r.deliver(wd)
			if st := r.srv.Stats(); st.AnnouncementsRelayed != 2*n {
				t.Fatalf("relayed %d announcements, want %d", st.AnnouncementsRelayed, 2*n)
			}
			anns = nil
			waitFor(t, "every decoded attribute set to be collected", func() bool {
				runtime.GC()
				return collected.Load() == n
			})
			runtime.KeepAlive(r.handlers) // as their sessions keep them
		})
	}
}

// upstreamAdverts flattens what the mux advertises to u on clients'
// behalf into prefix → "owner path next-hop [stale] [pending]".
func upstreamAdverts(u *Upstream) map[netip.Prefix]string {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make(map[netip.Prefix]string)
	for p, ad := range u.advertised {
		s := fmt.Sprintf("%s [%s] %v", ad.owner, ad.attrs.PathString(), ad.attrs.NextHop)
		if ad.stale {
			s += " stale"
		}
		if ad.pending {
			s += " pending"
		}
		out[p] = s
	}
	return out
}

// penaltyOf reads a route's dampening penalty in upstream u's table.
func penaltyOf(u *Upstream, k dampen.Key) float64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.damper.Penalty(k)
}

// TestMixedUpdateCounters feeds the announce path UPDATEs that mix
// every fate an NLRI can meet — relayed, outside the allocation, behind
// a leaked path, behind a foreign origin, reclaimed stale, over quota,
// withdrawn, withdrawn spuriously — and checks every per-NLRI counter
// and both upstreams' advert tables after each. The expectations are
// the parent commit's: its two handlers, run on the same input, give
// exactly these numbers in either mode, and so must the one handler.
func TestMixedUpdateCounters(t *testing.T) {
	a, b, c, d := prefix("10.0.1.0/24"), prefix("10.0.2.0/24"), prefix("10.0.3.0/24"), prefix("10.0.4.0/24")
	foreign := prefix("184.164.230.0/24")
	good := func() *wire.Attrs { return clientAttrs(testbedASN, 64512) } // a private origin, stripped on the way
	cat := func(parts ...[]wire.NLRI) (out []wire.NLRI) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	type counters struct {
		relayed, hijacks, origin, accepted, rejected, quotaRejected, quotaWarned, suppressed, staleFlushed uint64
	}
	steps := []struct {
		name string
		// restart marks every advert of the client stale first, as a lost
		// transport does.
		restart  bool
		upd      *wire.Update
		want     counters // cumulative
		up1, up2 map[netip.Prefix]string
	}{{
		name: "good, foreign and over-quota prefixes; foreign and spurious withdrawals",
		upd: &wire.Update{Attrs: good(),
			Withdrawn: cat(to(foreign, 1), to(a, 1)),
			Reach:     cat(to(a, 1, 2), to(foreign, 1), to(b, 1), to(c, 1), to(b, 2))},
		want: counters{relayed: 4, hijacks: 2, accepted: 6, quotaRejected: 1, quotaWarned: 2},
		up1:  map[netip.Prefix]string{a: "exp1 [47065] 80.249.208.1", b: "exp1 [47065] 80.249.208.1"},
		up2:  map[netip.Prefix]string{a: "exp1 [47065] 80.249.208.2", b: "exp1 [47065] 80.249.208.2"},
	}, {
		name: "leaked path: a leak whatever the prefix, never a hijack",
		upd:  &wire.Update{Attrs: clientAttrs(testbedASN, 174, 64999), Reach: cat(to(d, 1), to(foreign, 2))},
		want: counters{relayed: 4, hijacks: 2, accepted: 6, rejected: 2, quotaRejected: 1, quotaWarned: 2},
		up1:  map[netip.Prefix]string{a: "exp1 [47065] 80.249.208.1", b: "exp1 [47065] 80.249.208.1"},
		up2:  map[netip.Prefix]string{a: "exp1 [47065] 80.249.208.2", b: "exp1 [47065] 80.249.208.2"},
	}, {
		name: "foreign origin: ownership is settled first",
		upd:  &wire.Update{Attrs: clientAttrs(testbedASN, 3333), Reach: cat(to(d, 2), to(foreign, 2))},
		want: counters{relayed: 4, hijacks: 3, origin: 1, accepted: 8, rejected: 2, quotaRejected: 1, quotaWarned: 2},
		up1:  map[netip.Prefix]string{a: "exp1 [47065] 80.249.208.1", b: "exp1 [47065] 80.249.208.1"},
		up2:  map[netip.Prefix]string{a: "exp1 [47065] 80.249.208.2", b: "exp1 [47065] 80.249.208.2"},
	}, {
		name:    "restart: identical re-announcement reclaims silently",
		restart: true,
		upd:     &wire.Update{Attrs: good(), Reach: to(a, 1, 2)},
		want:    counters{relayed: 4, hijacks: 3, origin: 1, accepted: 10, rejected: 2, quotaRejected: 1, quotaWarned: 2},
		up1:     map[netip.Prefix]string{a: "exp1 [47065] 80.249.208.1", b: "exp1 [47065] 80.249.208.1 stale"},
		up2:     map[netip.Prefix]string{a: "exp1 [47065] 80.249.208.2", b: "exp1 [47065] 80.249.208.2 stale"},
	}, {
		name: "changed re-announcement replaces the stale advert",
		upd:  &wire.Update{Attrs: clientAttrs(testbedASN, testbedASN), Reach: to(b, 1)},
		want: counters{relayed: 5, hijacks: 3, origin: 1, accepted: 11, rejected: 2, quotaRejected: 1, quotaWarned: 2},
		up1:  map[netip.Prefix]string{a: "exp1 [47065] 80.249.208.1", b: "exp1 [47065 47065] 80.249.208.1"},
		up2:  map[netip.Prefix]string{a: "exp1 [47065] 80.249.208.2", b: "exp1 [47065] 80.249.208.2 stale"},
	}, {
		name: "end-of-RIB flushes what was not reclaimed",
		upd:  &wire.Update{},
		want: counters{relayed: 5, hijacks: 3, origin: 1, accepted: 11, rejected: 2, quotaRejected: 1, quotaWarned: 2, staleFlushed: 1},
		up1:  map[netip.Prefix]string{a: "exp1 [47065] 80.249.208.1", b: "exp1 [47065 47065] 80.249.208.1"},
		up2:  map[netip.Prefix]string{a: "exp1 [47065] 80.249.208.2"},
	}, {
		name: "withdrawals, one of them spurious",
		upd:  &wire.Update{Withdrawn: cat(to(a, 1, 2), to(c, 1))},
		want: counters{relayed: 5, hijacks: 3, origin: 1, accepted: 11, rejected: 2, quotaRejected: 1, quotaWarned: 2, staleFlushed: 1},
		up1:  map[netip.Prefix]string{b: "exp1 [47065 47065] 80.249.208.1"},
		up2:  map[netip.Prefix]string{},
	}}
	for _, mode := range []muxproto.Mode{muxproto.ModeQuagga, muxproto.ModeBIRD} {
		t.Run(string(mode), func(t *testing.T) {
			r := newAnnounceRig(t, mode, 2, QuotaConfig{MaxPrefixes: 2})
			if err := r.srv.RegisterClient(ClientAccount{
				ID: "exp2", Allocation: []netip.Prefix{foreign}, TunnelAddr: addr("10.250.0.2"),
			}); err != nil {
				t.Fatal(err)
			}
			for _, step := range steps {
				if step.restart {
					r.srv.markClientStale("exp1", nil)
				}
				upd := *step.upd // the handler consumes its UPDATE; the table serves both modes
				upd.Withdrawn, upd.Reach = append([]wire.NLRI(nil), upd.Withdrawn...), append([]wire.NLRI(nil), upd.Reach...)
				r.deliver(&upd)
				st := r.srv.Stats()
				got := counters{st.AnnouncementsRelayed, st.HijacksBlocked, st.OriginBlocked, st.PolicyAccepted, st.PolicyRejected,
					st.QuotaRejected, st.QuotaWarnings, st.FlapsSuppressed, st.StaleRoutesFlushed}
				if got != step.want {
					t.Fatalf("%s:\n got %+v\nwant %+v", step.name, got, step.want)
				}
				for i, want := range []map[netip.Prefix]string{step.up1, step.up2} {
					if got := upstreamAdverts(r.ups[i]); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: upstream %d advertises\n got %v\nwant %v", step.name, i+1, got, want)
					}
				}
			}
		})
	}
}

// TestAdvertTakeoverKeepsQuotaCounts is the regression test for an
// advert that changes owner. A federation agent and a local client
// share the testbed supernet, so both may announce one prefix; the
// second announcement used to skip the quota check, overwrite the owner
// and touch neither client's count, so that once the agent withdrew,
// exp1 was still charged for a prefix nobody advertised and lost one of
// its two slots. Now the newcomer is admitted and counted as for any
// net-new prefix and the displaced owner's count is released.
func TestAdvertTakeoverKeepsQuotaCounts(t *testing.T) {
	r := newAnnounceRig(t, muxproto.ModeQuagga, 1, QuotaConfig{MaxPrefixes: 2})
	u := r.ups[0]
	agent, _ := r.connect(t, ClientAccount{
		ID: "agent", Federated: true, Allocation: []netip.Prefix{prefix("10.0.0.0/8")}, TunnelAddr: addr("10.250.0.9"),
	})
	handler := map[*clientConn]*clientSessHandler{
		r.c: r.handler(u), agent: {srv: r.srv, c: agent, upstream: u},
	}
	announce := func(c *clientConn, i int) {
		handler[c].UpdateReceived(nil, &wire.Update{Attrs: clientAttrs(testbedASN), Reach: to(benchPrefix(i), 0)})
	}
	counts := func() string {
		u.mu.Lock()
		defer u.mu.Unlock()
		return fmt.Sprint(len(u.advertised), u.advCount)
	}
	announce(r.c, 0)
	announce(agent, 0)
	if got, want := counts(), "1 map[agent:1]"; got != want {
		t.Fatalf("after the takeover: advertised, advCount = %s, want %s", got, want)
	}
	if got := upstreamAdverts(u)[benchPrefix(0)]; !strings.HasPrefix(got, "agent ") {
		t.Fatalf("the advert is %q, want it owned by the agent", got)
	}
	handler[agent].UpdateReceived(nil, &wire.Update{Withdrawn: to(benchPrefix(0), 0)})
	if got, want := counts(), "0 map[]"; got != want {
		t.Fatalf("after the withdrawal: advertised, advCount = %s, want %s", got, want)
	}
	// Nothing is advertised: exp1 has both of its slots.
	announce(r.c, 1)
	announce(r.c, 2)
	if st := r.srv.Stats(); st.QuotaRejected != 0 || counts() != "2 map[exp1:2]" {
		t.Fatalf("exp1's two announcements: %d rejected, advertised, advCount = %s", st.QuotaRejected, counts())
	}
	// A takeover is net-new to the newcomer: at its limit it is refused
	// and the advert stays with its owner.
	announce(agent, 3)
	announce(agent, 4)
	announce(agent, 1)
	if st := r.srv.Stats(); st.QuotaRejected != 1 || counts() != "4 map[agent:2 exp1:2]" {
		t.Fatalf("a takeover over quota: %d rejected, advertised, advCount = %s", st.QuotaRejected, counts())
	}
}

// TestFirstAnnouncementNotDampened is the regression test for the
// dampening key: it was (prefix, client) yet charged once per target
// upstream, so one announcement steered to two upstreams banked
// 1000 + 1000, the default suppress threshold — on a clock that does
// not tick between the two charges the second upstream never heard the
// route (on the system clock, microseconds of decay hid it; three
// upstreams did not need the help). The key now names the peering.
func TestFirstAnnouncementNotDampened(t *testing.T) {
	for _, mode := range []muxproto.Mode{muxproto.ModeQuagga, muxproto.ModeBIRD} {
		t.Run(string(mode), func(t *testing.T) {
			clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
			srv := newCheckedServer(t, Config{
				Site: "damp01", ASN: testbedASN, RouterID: addr("184.164.224.1"), Mode: mode, Clock: clk,
			})
			var ups []*router.Router
			for i := 1; i <= 2; i++ {
				up := router.New(router.Config{AS: uint32(3000 + i), RouterID: addr(fmt.Sprintf("4.69.0.%d", i)), Clock: clk})
				peerAddr, localAddr := addr(fmt.Sprintf("80.249.208.%d", 10*i)), addr("80.249.208.1")
				u, err := srv.AddUpstream(UpstreamConfig{
					ID: uint32(i), Name: fmt.Sprintf("up%d", i), ASN: up.AS(), PeerAddr: peerAddr, LocalAddr: localAddr,
				})
				if err != nil {
					t.Fatal(err)
				}
				p := up.AddPeer(router.PeerConfig{Addr: localAddr, LocalAddr: peerAddr, AS: testbedASN})
				ca, cb := bufconn.Pipe()
				srv.AttachUpstream(u, ca)
				up.Attach(p, cb)
				waitFor(t, "upstream session", u.Established)
				ups = append(ups, up)
			}
			cl := connectChaosClient(t, srv, clk, "exp1", addr("10.250.0.1"), clientAlloc()...)
			p := clientAlloc()[0]
			if err := cl.Announce(p, client.AnnounceOptions{}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "both NLRIs vetted", func() bool {
				st := srv.Stats()
				return st.AnnouncementsRelayed+st.FlapsSuppressed == 2
			})
			if st := srv.Stats(); st.FlapsSuppressed != 0 || st.AnnouncementsRelayed != 2 {
				t.Fatalf("a first announcement to two upstreams: relayed %d, dampened %d; want 2, 0", st.AnnouncementsRelayed, st.FlapsSuppressed)
			}
			for i, up := range ups {
				waitFor(t, fmt.Sprintf("the route at upstream %d", i+1), func() bool { return up.LocRIB().Best(p) != nil })
				key := dampen.Key{Prefix: p, Source: addr("10.250.0.1")}
				if pen := penaltyOf(srv.Upstream(uint32(i+1)), key); pen != 1000 {
					t.Errorf("upstream %d: penalty %v after one announcement, want 1000", i+1, pen)
				}
			}
		})
	}
}

// TestDampeningRecordsPerPeering: one client's prefix announced on two
// upstreams keeps a record in each upstream's table, and a flap on one
// peering charges that record alone.
func TestDampeningRecordsPerPeering(t *testing.T) {
	r := newAnnounceRigWith(t, Config{Mode: muxproto.ModeBIRD, Clock: clock.NewVirtual(time.Unix(1_700_000_000, 0))}, 2, false)
	p := prefix("10.0.1.0/24")
	r.deliver(&wire.Update{Attrs: clientAttrs(testbedASN), Reach: to(p, 1, 2)})
	r.deliver(&wire.Update{Withdrawn: to(p, 1)})
	r.deliver(&wire.Update{Attrs: clientAttrs(testbedASN), Reach: to(p, 1)})
	key := dampen.Key{Prefix: p, Source: addr("10.250.0.1")}
	for i, want := range []float64{3000, 1000} {
		u := r.ups[i]
		if pen := penaltyOf(u, key); pen != want {
			t.Errorf("upstream %d: penalty %v, want %v", i+1, pen, want)
		}
		u.mu.Lock()
		n := u.damper.Tracked()
		u.mu.Unlock()
		if n != 1 {
			t.Errorf("upstream %d tracks %d records, want 1", i+1, n)
		}
	}
	if got := scrape(t, r.srv); !strings.Contains(got, "peering_dampen_tracked_keys 2") {
		t.Errorf("the gauge is not the sum over upstreams:\n%s", got)
	}
}

// TestHandlerBurstsFromTwoReaders: a supervisor's successive sessions
// share one handler, and a dead session's reader may still be inside it
// when the next one's starts, so two bursts can arrive at once. Each
// must run whole on the handler's scratch (under -race, a race here is
// a failure).
func TestHandlerBurstsFromTwoReaders(t *testing.T) {
	r := newAnnounceRig(t, muxproto.ModeBIRD, 2, QuotaConfig{})
	h := r.handler(nil)
	const n = 64
	var wg sync.WaitGroup
	for reader := 0; reader < 2; reader++ {
		var burst []*wire.Update
		for i := reader * n; i < (reader+1)*n; i++ {
			burst = append(burst, &wire.Update{Attrs: clientAttrs(testbedASN), Reach: to(benchPrefix(i), 1, 2)})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.UpdateBatchReceived(nil, burst)
		}()
	}
	wg.Wait()
	for i, u := range r.ups {
		if got := len(upstreamAdverts(u)); got != 2*n {
			t.Errorf("upstream %d advertises %d prefixes, want %d", i+1, got, 2*n)
		}
	}
	if st := r.srv.Stats(); st.AnnouncementsRelayed != 4*n {
		t.Errorf("relayed %d announcements, want %d", st.AnnouncementsRelayed, 4*n)
	}
}

// TestBurstMatchesOneAtATime: a read burst that holds every fate an
// UPDATE can meet — an announcement withdrawn and announced again, a
// spurious withdrawal, a hijack, a leak, a foreign origin, a stale
// route reclaimed, and a Refresh and an End-of-RIB in the middle —
// leaves the mux and its upstreams exactly as the same UPDATEs delivered
// one at a time do: the same advert tables, counters and dampening
// penalties, and each upstream peer hears the same routes in the same
// order. The
// burst goes out as one write per upstream per segment (the runs the
// two markers cut it into) plus the End-of-RIB's flush, where one at a
// time writes once per UPDATE.
func TestBurstMatchesOneAtATime(t *testing.T) {
	a, b, c, d, f := prefix("10.0.1.0/24"), prefix("10.0.2.0/24"), prefix("10.0.3.0/24"), prefix("10.0.4.0/24"), prefix("10.0.6.0/24")
	kept, flushed, hijack := prefix("10.0.9.0/24"), prefix("10.0.10.0/24"), prefix("8.8.8.0/24")
	good := func() *wire.Attrs { return clientAttrs(testbedASN, 64512) }
	burst := func() []*wire.Update {
		return []*wire.Update{
			{Attrs: good(), Reach: to(a, 1, 2)},
			{Withdrawn: to(a, 1, 2)},
			// A spurious withdrawal, then a hijack beside a good prefix.
			{Withdrawn: to(b, 1, 2)},
			{Attrs: good(), Reach: append(to(hijack, 1, 2), to(c, 1, 2)...)},
			{Refresh: true},
			{Attrs: good(), Reach: to(a, 1, 2)},
			// A leak, a foreign origin, and the stale route reclaimed.
			{Attrs: clientAttrs(testbedASN, 174, 64999), Reach: to(d, 1, 2)},
			{Attrs: clientAttrs(testbedASN, 3333), Reach: to(d, 1, 2)},
			{Attrs: good(), Reach: to(kept, 1, 2)},
			// End-of-RIB: the stale route not reclaimed goes.
			{},
			{Attrs: good(), Reach: to(f, 1, 2)},
			{Withdrawn: to(c, 2)},
		}
	}
	for _, mode := range []muxproto.Mode{muxproto.ModeQuagga, muxproto.ModeBIRD} {
		t.Run(string(mode), func(t *testing.T) {
			var rigs [2]*announceRig // one at a time, then the burst
			var writes [2][2]int32
			for k := range rigs {
				r := newAnnounceRigWith(t, Config{Mode: mode, Clock: clock.NewVirtual(time.Unix(1_700_000_000, 0))}, 2, true)
				r.deliver(&wire.Update{Attrs: good(), Reach: append(to(kept, 1, 2), to(flushed, 1, 2)...)})
				r.srv.markClientStale("exp1", nil)
				for i, wc := range r.wcs {
					writes[k][i] = -wc.calls.Load()
				}
				if k == 0 {
					for _, upd := range burst() {
						r.deliver(upd)
					}
				} else {
					r.deliver(burst()...)
				}
				for i, wc := range r.wcs {
					writes[k][i] += wc.calls.Load()
					waitFor(t, "the upstream peer to hear every UPDATE", func() bool {
						n, _ := r.heard[i].snapshot()
						return uint64(n) == upstreamSess(r.srv, uint32(i+1)).SentUpdates()
					})
				}
				rigs[k] = r
			}
			one, all := rigs[0], rigs[1]
			if writes != [2][2]int32{{6, 7}, {4, 4}} {
				t.Errorf("transport writes per upstream: one at a time %v, burst %v; want [6 7] and [4 4]", writes[0], writes[1])
			}
			for i := range one.ups {
				if got, want := upstreamAdverts(all.ups[i]), upstreamAdverts(one.ups[i]); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("upstream %d advertises\n burst %v\n  one at a time %v", i+1, got, want)
				}
				gotN, got := all.heard[i].snapshot()
				wantN, want := one.heard[i].snapshot()
				if gotN != wantN || got != want {
					t.Errorf("upstream peer %d heard\n burst %d UPDATEs, %s\n  one at a time %d UPDATEs, %s", i+1, gotN, got, wantN, want)
				}
				for _, p := range []netip.Prefix{a, b, c, d, f, kept, flushed, hijack} {
					key := dampen.Key{Prefix: p, Source: addr("10.250.0.1")}
					if got, want := penaltyOf(all.ups[i], key), penaltyOf(one.ups[i], key); got != want {
						t.Errorf("upstream %d, %v: burst charged %v, one at a time %v", i+1, p, got, want)
					}
				}
			}
			if pen := penaltyOf(all.ups[0], dampen.Key{Prefix: a, Source: addr("10.250.0.1")}); pen != 3000 {
				t.Errorf("announce, withdraw, announce charged %v, want 3000", pen)
			}
			// The Refresh's replay reaches the client's queue, whose flusher
			// counts what it wrote on its own time; how deep the queue got
			// depends on when the flusher ran.
			stats := func(r *announceRig) Stats {
				st := r.srv.Stats()
				st.FanoutQueueHighWater = 0
				return st
			}
			for i := 0; i < 500 && stats(one) != stats(all); i++ {
				time.Sleep(2 * time.Millisecond)
			}
			if got, want := stats(all), stats(one); got != want {
				t.Errorf("Stats():\n burst %+v\n  one at a time %+v", got, want)
			}
		})
	}
}

// The allocation table answers vetting in both families: a prefix is a
// client's when the most specific allocated block covering it is that
// client's, a block already allocated (host bits or not) is refused,
// and a federated agent is checked by containment alone. The spoof
// filter's source lookups read the same table.
func TestAllocationTableOwners(t *testing.T) {
	srv := newCheckedServer(t, Config{})
	accts := []ClientAccount{
		{ID: "wide", Allocation: []netip.Prefix{prefix("184.164.224.0/23"), prefix("2001:db8::/32")}},
		{ID: "narrow", Allocation: []netip.Prefix{prefix("184.164.225.0/24"), prefix("2001:db8:1::/48")}},
		{ID: "agent", Federated: true, Allocation: []netip.Prefix{prefix("184.164.0.0/16")}},
	}
	for _, a := range accts {
		if err := srv.RegisterClient(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.RegisterClient(ClientAccount{ID: "late", Allocation: []netip.Prefix{prefix("184.164.225.7/24")}}); err == nil {
		t.Fatal("a block already allocated was allocated again")
	}
	for _, tc := range []struct {
		acct int
		p    string
		want bool
	}{
		{0, "184.164.224.0/23", true},
		{0, "184.164.224.0/24", true},
		{0, "184.164.225.0/24", false}, // narrow's block is the more specific
		{1, "184.164.225.128/25", true},
		{1, "184.164.224.0/23", false},
		{0, "2001:db8:2::/48", true},
		{0, "2001:db8:1:5::/64", false},
		{1, "2001:db8:1:5::/64", true},
		{1, "2001:db8::/32", false},
		{0, "10.0.0.0/24", false},
		{2, "184.164.3.0/24", true},
		{2, "184.165.0.0/24", false},
	} {
		if got := srv.allocatedTo(accts[tc.acct], prefix(tc.p)); got != tc.want {
			t.Errorf("allocatedTo(%s, %s) = %v, want %v", accts[tc.acct].ID, tc.p, got, tc.want)
		}
	}
	for src, want := range map[string]string{
		"184.164.224.9": "wide", "184.164.225.9": "narrow", "2001:db8:1::9": "narrow", "2001:db8:2::9": "wide",
	} {
		if _, owner, _ := srv.alloc.Load().Lookup(addr(src)); owner != want {
			t.Errorf("source %s is %q's, want %q's", src, owner, want)
		}
	}
}
