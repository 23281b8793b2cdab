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
	"sync/atomic"
	"testing"
	"time"

	"peering/internal/bufconn"
	"peering/internal/client"
	"peering/internal/clock"
	"peering/internal/dampen"
	"peering/internal/muxproto"
	"peering/internal/router"
	"peering/internal/wire"
)

// quietPeer completes the OPEN exchange on conn by hand (hold time 0, so
// neither side owes keepalives) and then discards whatever the mux
// sends: a measurement of the announce path then counts the mux's own
// work and not a peer's decoder.
func quietPeer(tb testing.TB, conn net.Conn, as uint16, id netip.Addr) {
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
		io.Copy(io.Discard, conn)
	}()
}

// announceRig is a mux with n upstreams behind quiet peers, the policy
// of the relay benchmarks loaded, and one connected client that owns
// 10.0.0.0/8 (benchPrefix's world). Tests drive its handler directly,
// with UPDATEs shaped as the session decoder would hand them over.
type announceRig struct {
	srv *Server
	c   *clientConn
	ups []*Upstream
}

func newAnnounceRig(tb testing.TB, mode muxproto.Mode, n int, quota QuotaConfig) *announceRig {
	tb.Helper()
	r := &announceRig{srv: newCheckedServer(tb, Config{
		Site: "announce01", ASN: testbedASN, RouterID: addr("184.164.224.1"),
		Mode: mode, Policy: testPolicy(), Quota: quota, Dampening: relaxedDampening(),
	})}
	for i := 1; i <= n; i++ {
		u, err := r.srv.AddUpstream(UpstreamConfig{
			ID: uint32(i), Name: fmt.Sprintf("up%d", i), ASN: 3356,
			PeerAddr: addr(fmt.Sprintf("80.249.208.%d", 10*i)), LocalAddr: addr(fmt.Sprintf("80.249.208.%d", i)),
		})
		if err != nil {
			tb.Fatal(err)
		}
		ca, cb := bufconn.Pipe()
		quietPeer(tb, cb, 3356, addr(fmt.Sprintf("4.69.0.%d", i)))
		r.srv.AttachUpstream(u, ca)
		waitFor(tb, "upstream session", u.Established)
		r.ups = append(r.ups, u)
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
	if mode == muxproto.ModeBIRD {
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

// feed hands the mux one client UPDATE: whole in BIRD mode, where path
// IDs name the upstreams; in Quagga mode split into one UPDATE per
// upstream with the IDs gone, as that upstream's session would carry it.
func (r *announceRig) feed(upd *wire.Update) {
	if r.srv.cfg.Mode == muxproto.ModeBIRD {
		r.srv.handleClientUpdate(r.c, nil, upd)
		return
	}
	for _, u := range r.ups {
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
			r.srv.handleClientUpdate(r.c, u, part)
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

// announceCycle is the measured operation of the allocation budget and
// of BenchmarkAnnounceVetting: one BIRD-mode announcement of a fresh
// prefix to two upstreams, then its withdrawal. ann and wd are reused
// across calls — the handler retains nothing of an UPDATE it was given —
// so what is counted is the mux's work alone.
func (r *announceRig) announceCycle(ann, wd *wire.Update, i int) {
	p := benchPrefix(i & 0xffffff)
	for k := range ann.Reach {
		ann.Reach[k].Prefix, wd.Withdrawn[k].Prefix = p, p
	}
	r.srv.handleClientUpdate(r.c, nil, ann)
	r.srv.handleClientUpdate(r.c, nil, wd)
}

func cycleUpdates() (ann, wd *wire.Update) {
	return &wire.Update{Attrs: clientAttrs(testbedASN), Reach: to(netip.Prefix{}, 1, 2)},
		&wire.Update{Withdrawn: to(netip.Prefix{}, 1, 2)}
}

// TestAnnounceHotPathAllocs is the announce direction's allocation
// budget: announcing one prefix to two upstreams and withdrawing it
// again may allocate the two adverts, the vetted AS path, one pooled
// frame per message sent, and the amortised growth of the advert and
// dampening tables — 8 per cycle as measured, against 55 at the parent
// commit. Skipped under -race, whose instrumentation allocates on its
// own.
func TestAnnounceHotPathAllocs(t *testing.T) {
	r := newAnnounceRig(t, muxproto.ModeBIRD, 2, QuotaConfig{})
	ann, wd := cycleUpdates()
	i := 0
	for ; i < 4096; i++ { // warm the tables, the intern table and the buffer pool
		r.announceCycle(ann, wd, i)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		r.announceCycle(ann, wd, i)
		i++
	})
	t.Logf("announce + withdraw to 2 upstreams: %.0f allocs", allocs)
	st := r.srv.Stats()
	if want := uint64(2 * i); st.AnnouncementsRelayed != want || st.FlapsSuppressed != 0 || st.PolicyAccepted != want {
		t.Fatalf("relayed %d, suppressed %d, verdicts %d; want %d, 0, %d", st.AnnouncementsRelayed, st.FlapsSuppressed, st.PolicyAccepted, want, want)
	}
	const budget = 12
	if !raceEnabled && allocs > budget {
		t.Errorf("announce path allocates %.0f times per cycle, budget %d", allocs, budget)
	}
}

// BenchmarkAnnounceVetting reports ns/op, B/op and allocs/op for one
// announce + withdraw cycle of a fresh prefix toward two upstreams in
// BIRD mode: demux, VerdictPath, allocation and origin checks, quota,
// dampening, attribute hygiene, the advert table, encode and send.
func BenchmarkAnnounceVetting(b *testing.B) {
	r := newAnnounceRig(b, muxproto.ModeBIRD, 2, QuotaConfig{})
	ann, wd := cycleUpdates()
	r.announceCycle(ann, wd, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		r.announceCycle(ann, wd, i)
	}
}

// TestAnnouncementRetainsNothing: once a prefix has been announced and
// withdrawn again, nothing in the mux may still reference the attribute
// set the client's UPDATE was decoded into — not the policy filter's
// path memo (which pinned every one of them until the next reload at
// the parent commit), not the intern table, not the dampener.
func TestAnnouncementRetainsNothing(t *testing.T) {
	for _, mode := range []muxproto.Mode{muxproto.ModeQuagga, muxproto.ModeBIRD} {
		t.Run(string(mode), func(t *testing.T) {
			r := newAnnounceRig(t, mode, 2, QuotaConfig{})
			const n = 64
			var collected atomic.Int32
			for i := 0; i < n; i++ {
				attrs := clientAttrs(testbedASN, 64512+uint32(i%4))
				attrs.Communities = []wire.Community{wire.MakeCommunity(47065, uint16(i%8))}
				runtime.SetFinalizer(attrs, func(*wire.Attrs) { collected.Add(1) })
				r.feed(&wire.Update{Attrs: attrs, Reach: to(benchPrefix(i), 1, 2)})
				r.feed(&wire.Update{Withdrawn: to(benchPrefix(i), 1, 2)})
			}
			if st := r.srv.Stats(); st.AnnouncementsRelayed != 2*n {
				t.Fatalf("relayed %d announcements, want %d", st.AnnouncementsRelayed, 2*n)
			}
			waitFor(t, "every decoded attribute set to be collected", func() bool {
				runtime.GC()
				return collected.Load() == n
			})
		})
	}
}

// upstreamAdverts flattens what the mux advertises to u on clients'
// behalf into prefix → "owner path next-hop [stale]".
func upstreamAdverts(u *Upstream) map[netip.Prefix]string {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make(map[netip.Prefix]string)
	for p, ad := range u.advertised {
		s := fmt.Sprintf("%s [%s] %v", ad.owner, ad.attrs.PathString(), ad.attrs.NextHop)
		if ad.stale {
			s += " stale"
		}
		out[p] = s
	}
	return out
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
				if upd.IsEndOfRIB() && mode == muxproto.ModeQuagga {
					for _, u := range r.ups { // one marker per session
						r.srv.handleClientUpdate(r.c, u, &wire.Update{})
					}
				} else {
					r.feed(&upd)
				}
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
	announce := func(c *clientConn, i int) {
		r.srv.handleClientUpdate(c, u, &wire.Update{Attrs: clientAttrs(testbedASN), Reach: to(benchPrefix(i), 0)})
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
	r.srv.handleClientUpdate(agent, u, &wire.Update{Withdrawn: to(benchPrefix(0), 0)})
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
				key := dampen.Key{Prefix: p, Source: addr("10.250.0.1"), Upstream: uint32(i + 1)}
				if pen := srv.damper.Penalty(key); pen != 1000 {
					t.Errorf("upstream %d: penalty %v after one announcement, want 1000", i+1, pen)
				}
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
