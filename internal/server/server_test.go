package server

import (
	"fmt"
	"maps"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peering/internal/bufconn"
	"peering/internal/client"
	"peering/internal/clock"
	"peering/internal/dataplane"
	"peering/internal/muxproto"
	"peering/internal/router"
)

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

const testbedASN = 47065

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// rig is a complete test harness: a server with two upstream peers
// (router.Router instances acting as the "real Internet").
type rig struct {
	srv *Server
	// up1, up2 are the real peers' routers.
	up1, up2 *router.Router
}

func newRig(t testing.TB, mode muxproto.Mode) *rig {
	t.Helper()
	srv := New(Config{
		Site:     "amsterdam01",
		ASN:      testbedASN,
		RouterID: addr("184.164.224.1"),
		Mode:     mode,
	})
	r := &rig{srv: srv}
	r.up1 = router.New(router.Config{AS: 3356, RouterID: addr("4.69.0.1")})
	r.up2 = router.New(router.Config{AS: 2914, RouterID: addr("129.250.0.1")})

	for i, up := range []*router.Router{r.up1, r.up2} {
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
			Describe: "peering-testbed",
		})
		ca, cb := bufconn.Pipe()
		srv.AttachUpstream(u, ca)
		up.Attach(p, cb)
		waitFor(t, "upstream session", func() bool { return u.Established() })
	}
	t.Cleanup(srv.Close)
	return r
}

func (r *rig) connectClient(t testing.TB, id string, alloc []netip.Prefix, spoof bool) *client.Client {
	t.Helper()
	tunAddr := addr("10.250.0." + map[string]string{"exp1": "1", "exp2": "2", "exp3": "3"}[id])
	if err := r.srv.RegisterClient(ClientAccount{
		ID: id, Allocation: alloc, SpoofAllowed: spoof, TunnelAddr: tunAddr,
	}); err != nil {
		t.Fatal(err)
	}
	ca, cb := bufconn.Pipe()
	if err := r.srv.AcceptClient(id, ca); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Connect(client.Config{Name: id, RouterID: tunAddr}, cb)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitEstablished(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func clientAlloc() []netip.Prefix { return []netip.Prefix{prefix("184.164.224.0/24")} }

func TestProvisioningHandshake(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	prov := cl.Provisioning()
	if prov.ASN != testbedASN || prov.Site != "amsterdam01" || prov.Mode != muxproto.ModeQuagga {
		t.Fatalf("provisioning = %+v", prov)
	}
	if len(prov.Upstreams) != 2 {
		t.Fatalf("upstreams = %v", prov.Upstreams)
	}
	if len(cl.Allocation()) != 1 || cl.Allocation()[0] != prefix("184.164.224.0/24") {
		t.Fatalf("allocation = %v", cl.Allocation())
	}
}

func TestClientSeesEachPeersRoutesSeparately(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)

	// Each upstream announces a distinct prefix — and both announce a
	// shared one, so the client must see BOTH routes (no best-path
	// selection at the server).
	r.up1.Announce(prefix("11.0.0.0/16"), router.AnnounceSpec{})
	r.up2.Announce(prefix("12.0.0.0/16"), router.AnnounceSpec{})
	r.up1.Announce(prefix("13.0.0.0/16"), router.AnnounceSpec{})
	r.up2.Announce(prefix("13.0.0.0/16"), router.AnnounceSpec{Prepend: 3})

	waitFor(t, "routes at client", func() bool {
		return cl.RouteCount(1) == 2 && cl.RouteCount(2) == 2
	})
	both := cl.RoutesFor(prefix("13.0.0.0/16"))
	if len(both) != 2 {
		t.Fatalf("views of shared prefix = %d, want 2", len(both))
	}
	if both[1].Attrs.PathLen() != 1 || both[2].Attrs.PathLen() != 4 {
		t.Fatalf("paths: up1=%q up2=%q", both[1].Attrs.PathString(), both[2].Attrs.PathString())
	}
	// Client-side selection picks the short path.
	best := cl.BestRoute(prefix("13.0.0.0/16"))
	if best.Attrs.FirstAS() != 3356 {
		t.Fatalf("best via %d", best.Attrs.FirstAS())
	}
}

func TestLateClientGetsFullReplay(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	r.up1.Announce(prefix("11.0.0.0/16"), router.AnnounceSpec{})
	r.up1.Announce(prefix("11.1.0.0/16"), router.AnnounceSpec{})
	// Wait for the server to hold them.
	waitFor(t, "server adj-in", func() bool { return r.srv.Upstream(1).RoutesIn() == 2 })
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	waitFor(t, "replayed routes", func() bool { return cl.RouteCount(1) == 2 })
}

func TestAnnouncementReachesUpstreamSanitized(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	p := prefix("184.164.224.0/24")
	// Announce with an emulated domain chain (private ASNs) and a
	// poisoned public ASN.
	if err := cl.Announce(p, client.AnnounceOptions{
		OriginASNs: []uint32{65001, 65002},
		Prepend:    1,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "route at upstream", func() bool { return r.up1.LocRIB().Best(p) != nil })
	rt := r.up1.LocRIB().Best(p)
	// Private ASNs stripped; testbed ASN present (twice: prepend 1).
	if got := rt.Attrs.PathString(); got != "47065 47065" {
		t.Fatalf("path at upstream = %q, want \"47065 47065\"", got)
	}
	// NEXT_HOP is the server's address on the peering.
	if rt.Attrs.NextHop != addr("80.249.208.1") {
		t.Fatalf("next hop = %v", rt.Attrs.NextHop)
	}
	if r.srv.Stats().AnnouncementsRelayed == 0 {
		t.Fatal("stats not counted")
	}
}

func TestHijackBlocked(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	// 8.8.8.0/24 is not in the allocation: must never reach upstreams.
	cl.Announce(prefix("8.8.8.0/24"), client.AnnounceOptions{})
	// A legitimate announcement after it proves ordering.
	cl.Announce(prefix("184.164.224.0/24"), client.AnnounceOptions{})
	waitFor(t, "legit route", func() bool { return r.up1.LocRIB().Best(prefix("184.164.224.0/24")) != nil })
	if r.up1.LocRIB().Best(prefix("8.8.8.0/24")) != nil {
		t.Fatal("hijacked prefix reached the Internet")
	}
	if r.srv.Stats().HijacksBlocked == 0 {
		t.Fatal("hijack not counted")
	}
	// Announcing a superset of the allocation is also a hijack.
	cl.Announce(prefix("184.164.224.0/23"), client.AnnounceOptions{})
	time.Sleep(50 * time.Millisecond)
	if r.up1.LocRIB().Best(prefix("184.164.224.0/23")) != nil {
		t.Fatal("covering aggregate escaped")
	}
}

func TestMoreSpecificWithinAllocationAllowed(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	p := prefix("184.164.224.128/25")
	cl.Announce(p, client.AnnounceOptions{})
	waitFor(t, "more-specific", func() bool { return r.up1.LocRIB().Best(p) != nil })
}

func TestPublicOriginBlocked(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	// Pretending 3356 originated our prefix would fabricate routing
	// data: blocked by the origin filter.
	cl.Announce(prefix("184.164.224.0/24"), client.AnnounceOptions{OriginASNs: []uint32{3356}})
	time.Sleep(50 * time.Millisecond)
	if r.up1.LocRIB().Best(prefix("184.164.224.0/24")) != nil {
		t.Fatal("forged-origin announcement escaped")
	}
	if r.srv.Stats().OriginBlocked == 0 {
		t.Fatal("origin block not counted")
	}
}

func TestSelectiveAnnouncementPerUpstream(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	p := prefix("184.164.224.0/24")
	cl.Announce(p, client.AnnounceOptions{Upstreams: []uint32{2}})
	waitFor(t, "route at up2", func() bool { return r.up2.LocRIB().Best(p) != nil })
	time.Sleep(50 * time.Millisecond)
	if r.up1.LocRIB().Best(p) != nil {
		t.Fatal("announcement leaked to unselected upstream")
	}
}

func TestWithdrawReachesUpstream(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	p := prefix("184.164.224.0/24")
	cl.Announce(p, client.AnnounceOptions{})
	waitFor(t, "announced", func() bool { return r.up1.LocRIB().Best(p) != nil })
	cl.Withdraw(p, nil)
	waitFor(t, "withdrawn", func() bool { return r.up1.LocRIB().Best(p) == nil })
}

func TestDampeningSuppressesFlaps(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	p := prefix("184.164.224.0/24")
	// Rapid flapping: announce repeatedly. The default config
	// suppresses at penalty 2000 = 2 flaps back to back.
	for i := 0; i < 5; i++ {
		cl.Announce(p, client.AnnounceOptions{})
	}
	waitFor(t, "suppression", func() bool { return r.srv.Stats().FlapsSuppressed > 0 })
}

func TestClientDisconnectWithdrawsButSessionsSurvive(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	p := prefix("184.164.224.0/24")
	cl.Announce(p, client.AnnounceOptions{})
	waitFor(t, "announced", func() bool { return r.up1.LocRIB().Best(p) != nil })

	cl.Close()
	waitFor(t, "withdrawn after disconnect", func() bool { return r.up1.LocRIB().Best(p) == nil })
	// §3: the upstream sessions must remain established — the Internet
	// sees a stable AS across experiment churn.
	if !r.srv.Upstream(1).Established() || !r.srv.Upstream(2).Established() {
		t.Fatal("upstream session dropped on client churn")
	}
	waitFor(t, "client reaped", func() bool { return r.srv.ClientCount() == 0 })
}

func TestTwoClientsIsolated(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl1 := r.connectClient(t, "exp1", []netip.Prefix{prefix("184.164.224.0/24")}, false)
	cl2 := r.connectClient(t, "exp2", []netip.Prefix{prefix("184.164.225.0/24")}, false)

	// exp2 cannot announce exp1's prefix.
	cl2.Announce(prefix("184.164.224.0/24"), client.AnnounceOptions{})
	// Both announce their own.
	cl1.Announce(prefix("184.164.224.0/24"), client.AnnounceOptions{})
	cl2.Announce(prefix("184.164.225.0/24"), client.AnnounceOptions{})
	waitFor(t, "both prefixes", func() bool {
		return r.up1.LocRIB().Best(prefix("184.164.224.0/24")) != nil &&
			r.up1.LocRIB().Best(prefix("184.164.225.0/24")) != nil
	})
	if r.srv.Stats().HijacksBlocked == 0 {
		t.Fatal("cross-client announcement not blocked")
	}
	// Disconnecting exp1 withdraws only exp1's prefix.
	cl1.Close()
	waitFor(t, "exp1 withdrawn", func() bool {
		return r.up1.LocRIB().Best(prefix("184.164.224.0/24")) == nil
	})
	if r.up1.LocRIB().Best(prefix("184.164.225.0/24")) == nil {
		t.Fatal("exp2's prefix withdrawn with exp1's disconnect")
	}
}

func TestOverlappingAllocationRejected(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	if err := r.srv.RegisterClient(ClientAccount{ID: "a", Allocation: clientAlloc(), TunnelAddr: addr("10.250.0.9")}); err != nil {
		t.Fatal(err)
	}
	err := r.srv.RegisterClient(ClientAccount{ID: "b", Allocation: clientAlloc(), TunnelAddr: addr("10.250.0.10")})
	if err == nil {
		t.Fatal("overlapping allocation accepted")
	}
}

func TestUnknownClientRejected(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	ca, _ := bufconn.Pipe()
	if err := r.srv.AcceptClient("ghost", ca); err == nil {
		t.Fatal("unvetted client accepted")
	}
}

// ---------------------------------------------------------------------
// Data plane

func TestTrafficClientToInternetAndBack(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)

	// An Internet host hanging off the server's dataplane.
	dst := dataplane.NewHost("webserver", addr("93.184.216.34"))
	_, svIf, hostIf := dataplane.Connect(r.srv.DP(), addr("93.184.216.1"), "inet", dst, addr("93.184.216.34"), "eth0")
	r.srv.DP().AddIface(svIf)
	dst.SetIface(hostIf)
	r.srv.DP().SetRoute(prefix("93.184.216.0/24"), netip.Addr{}, svIf)

	var got []*dataplane.Packet
	recvd := make(chan *dataplane.Packet, 8)
	cl.OnPacket(func(p *dataplane.Packet) { recvd <- p.Clone() })

	// Client → Internet.
	pkt := dataplane.NewPacket(addr("184.164.224.10"), addr("93.184.216.34"), dataplane.ProtoUDP)
	pkt.Payload = []byte("GET /")
	if err := cl.SendPacket(pkt); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "packet at host", func() bool { return len(dst.Inbox()) == 1 })

	// Internet → client: host replies to the experiment address.
	reply := dataplane.NewPacket(addr("93.184.216.34"), addr("184.164.224.10"), dataplane.ProtoUDP)
	reply.Payload = []byte("200 OK")
	dst.Send(reply)
	select {
	case p := <-recvd:
		got = append(got, p)
		if string(p.Payload) != "200 OK" {
			t.Fatalf("payload = %q", p.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reply never reached client")
	}
	_ = got
	st := r.srv.Stats()
	if st.PacketsFromClients != 1 || st.PacketsToClients != 1 {
		t.Fatalf("packet stats = %+v", st)
	}
}

// egressNode is the far end of a server egress link: it counts arrivals.
type egressNode struct{ packets atomic.Uint64 }

func (*egressNode) Name() string { return "egress" }

func (n *egressNode) Receive(*dataplane.Packet, *dataplane.Iface) { n.packets.Add(1) }

// addEgress hangs a counting node off the server's data plane and
// routes 93.184.216.0/24 to it.
func (r *rig) addEgress() *egressNode {
	n := &egressNode{}
	_, svIf, _ := dataplane.Connect(r.srv.DP(), addr("93.184.216.1"), "inet", n, addr("93.184.216.34"), "eth0")
	r.srv.DP().AddIface(svIf)
	r.srv.DP().SetRoute(prefix("93.184.216.0/24"), netip.Addr{}, svIf)
	return n
}

// A client may send the moment Connect returns: the server opens the
// packet channel before it writes provisioning, so a packet that
// arrives ahead of the server's own tunnel set-up waits on the stream
// instead of being discarded by the mux as unsolicited.
func TestFirstPacketAfterConnectIsForwarded(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	egress := r.addEgress()
	for i := 0; i < 20; i++ { // the window is short; a fresh client each time
		id := fmt.Sprintf("early%d", i)
		if err := r.srv.RegisterClient(ClientAccount{
			ID: id, Allocation: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{184, 164, byte(224 + i), 0}), 24)},
			TunnelAddr: netip.AddrFrom4([4]byte{10, 250, 1, byte(i + 1)}),
		}); err != nil {
			t.Fatal(err)
		}
		ca, cb := bufconn.Pipe()
		if err := r.srv.AcceptClient(id, ca); err != nil {
			t.Fatal(err)
		}
		cl, err := client.Connect(client.Config{Name: id, RouterID: addr("10.250.1.1")}, cb)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		src := netip.AddrFrom4([4]byte{184, 164, byte(224 + i), 10})
		if err := cl.SendPacket(dataplane.NewPacket(src, addr("93.184.216.34"), dataplane.ProtoUDP)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the first packet at the egress", func() bool { return egress.packets.Load() == uint64(i+1) })
	}
}

func TestSpoofedTrafficBlocked(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	dst := dataplane.NewHost("h", addr("93.184.216.34"))
	_, svIf, hostIf := dataplane.Connect(r.srv.DP(), addr("93.184.216.1"), "inet", dst, addr("93.184.216.34"), "eth0")
	r.srv.DP().AddIface(svIf)
	dst.SetIface(hostIf)
	r.srv.DP().SetRoute(prefix("93.184.216.0/24"), netip.Addr{}, svIf)

	spoof := dataplane.NewPacket(addr("8.8.8.8"), addr("93.184.216.34"), dataplane.ProtoUDP)
	cl.SendPacket(spoof)
	waitFor(t, "spoof counted", func() bool { return r.srv.Stats().SpoofsBlocked == 1 })
	if len(dst.Inbox()) != 0 {
		t.Fatal("spoofed packet delivered")
	}
}

// The spoof filter reads allocations frozen at registration: a client's
// verdicts do not change when another client registers, and the
// newcomer is filtered against the same table from its first packet.
func TestSpoofFilterAcrossRegistrations(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	egress := r.addEgress()
	exp1 := r.connectClient(t, "exp1", clientAlloc(), false)
	// verdicts sends one packet per source and reports which passed.
	verdicts := func(cl *client.Client, srcs ...string) string {
		out := ""
		for _, src := range srcs {
			sent, blocked := egress.packets.Load(), r.srv.Stats().SpoofsBlocked
			if err := cl.SendPacket(dataplane.NewPacket(addr(src), addr("93.184.216.34"), dataplane.ProtoUDP)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "a verdict on "+src, func() bool {
				return egress.packets.Load()+r.srv.Stats().SpoofsBlocked == sent+blocked+1
			})
			out += fmt.Sprintf("%s:%v ", src, egress.packets.Load() > sent)
		}
		return out
	}
	srcs := []string{"184.164.224.10", "184.164.224.255", "184.164.225.10", "184.164.223.255", "8.8.8.8", "0.0.0.0"}
	before := verdicts(exp1, srcs...)
	if want := "184.164.224.10:true 184.164.224.255:true 184.164.225.10:false 184.164.223.255:false 8.8.8.8:false 0.0.0.0:false "; before != want {
		t.Fatalf("verdicts = %s, want %s", before, want)
	}
	exp2 := r.connectClient(t, "exp2", []netip.Prefix{prefix("184.164.225.0/24")}, false)
	if err := r.srv.RegisterClient(ClientAccount{ID: "agent", Federated: true, Allocation: clientAlloc()}); err != nil {
		t.Fatal(err)
	}
	if after := verdicts(exp1, srcs...); after != before {
		t.Fatalf("exp1's verdicts changed when exp2 registered:\n before %s\n after  %s", before, after)
	}
	if got, want := verdicts(exp2, "184.164.225.10", "184.164.224.10"), "184.164.225.10:true 184.164.224.10:false "; got != want {
		t.Fatalf("exp2's verdicts = %s, want %s", got, want)
	}
}

func TestControlledSpoofingGrant(t *testing.T) {
	r := newRig(t, muxproto.ModeQuagga)
	cl := r.connectClient(t, "exp1", clientAlloc(), true) // spoof grant
	dst := dataplane.NewHost("h", addr("93.184.216.34"))
	_, svIf, hostIf := dataplane.Connect(r.srv.DP(), addr("93.184.216.1"), "inet", dst, addr("93.184.216.34"), "eth0")
	r.srv.DP().AddIface(svIf)
	dst.SetIface(hostIf)
	r.srv.DP().SetRoute(prefix("93.184.216.0/24"), netip.Addr{}, svIf)

	spoof := dataplane.NewPacket(addr("8.8.8.8"), addr("93.184.216.34"), dataplane.ProtoUDP)
	cl.SendPacket(spoof)
	waitFor(t, "spoofed delivery", func() bool { return len(dst.Inbox()) == 1 })
	if r.srv.Stats().SpoofsBlocked != 0 {
		t.Fatal("granted spoof counted as blocked")
	}
}

// ---------------------------------------------------------------------
// BIRD mode

func TestBIRDModeSingleSessionMultiplexes(t *testing.T) {
	r := newRig(t, muxproto.ModeBIRD)
	cl := r.connectClient(t, "exp1", clientAlloc(), false)
	if cl.Provisioning().Mode != muxproto.ModeBIRD {
		t.Fatal("mode not BIRD")
	}
	// One session only.
	waitFor(t, "session", func() bool { return cl.SessionCount() == 1 })

	// Upstream routes demultiplex into per-peer views by path ID.
	r.up1.Announce(prefix("11.0.0.0/16"), router.AnnounceSpec{})
	r.up2.Announce(prefix("12.0.0.0/16"), router.AnnounceSpec{})
	waitFor(t, "views", func() bool { return cl.RouteCount(1) == 1 && cl.RouteCount(2) == 1 })

	// Steered announcement via path ID reaches only upstream 2.
	p := prefix("184.164.224.0/24")
	cl.Announce(p, client.AnnounceOptions{Upstreams: []uint32{2}})
	waitFor(t, "at up2", func() bool { return r.up2.LocRIB().Best(p) != nil })
	time.Sleep(50 * time.Millisecond)
	if r.up1.LocRIB().Best(p) != nil {
		t.Fatal("BIRD-mode steering leaked")
	}
	// Withdraw via path ID.
	cl.Withdraw(p, []uint32{2})
	waitFor(t, "withdrawn", func() bool { return r.up2.LocRIB().Best(p) == nil })
}

func TestModeSessionCountAblation(t *testing.T) {
	// The §3 motivation for BIRD mode: Quagga mode needs one session
	// per upstream; BIRD needs one total.
	rq := newRig(t, muxproto.ModeQuagga)
	cq := rq.connectClient(t, "exp1", clientAlloc(), false)
	waitFor(t, "quagga sessions", func() bool { return cq.SessionCount() == 2 })

	rb := newRig(t, muxproto.ModeBIRD)
	cb := rb.connectClient(t, "exp1", clientAlloc(), false)
	waitFor(t, "bird session", func() bool { return cb.SessionCount() == 1 })
}

// TestRegistryUnderConcurrency drives every writer of Server.mu at once
// — upstreams added, accounts registered, clients accepted, superseded
// and detached (arming restart timers), a superseding client's
// end-of-RIB disarming one — beside pollers reading the registries, then
// Close. Run under -race; a nested acquisition of the lock would leave
// the run hanging past its deadline.
func TestRegistryUnderConcurrency(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	srv := newCheckedServer(t, Config{
		Site: "registry01", ASN: testbedASN, RouterID: addr("184.164.224.1"),
		Mode: muxproto.ModeBIRD, Clock: clk, Shards: 2,
	})
	upstream := func(id int) UpstreamConfig {
		return UpstreamConfig{
			ID: uint32(id), Name: fmt.Sprintf("up%d", id), ASN: uint32(3000 + id),
			PeerAddr: addr(fmt.Sprintf("80.249.208.%d", 10*id)), LocalAddr: addr("80.249.208.1"),
		}
	}
	// One upstream before anyone connects, so every client's announcement
	// is booked and its loss arms a restart timer.
	first, err := srv.AddUpstream(upstream(1))
	if err != nil {
		t.Fatal(err)
	}

	// connect accepts client id over a fresh pipe; the client runs on the
	// system clock.
	connect := func(id string, tun netip.Addr) (*bufconn.Conn, *client.Client, error) {
		ca, cb := bufconn.Pipe()
		if err := srv.AcceptClient(id, ca); err != nil {
			return nil, nil, err
		}
		cl, err := client.Connect(client.Config{Name: id, RouterID: tun}, cb)
		if err != nil {
			return nil, nil, err
		}
		t.Cleanup(func() { cl.Close() })
		return ca, cl, cl.WaitEstablished(10 * time.Second)
	}
	// join registers client k, announces its /24, waits for the advert to
	// be booked, then either reconnects (k == 1: the supersede path) or
	// closes its transport (detachClient).
	join := func(k int) error {
		id, tun := fmt.Sprintf("exp%d", k), addr(fmt.Sprintf("10.250.0.%d", k))
		mine := netip.PrefixFrom(netip.AddrFrom4([4]byte{184, 164, byte(224 + k), 0}), 24)
		if err := srv.RegisterClient(ClientAccount{ID: id, TunnelAddr: tun, Allocation: []netip.Prefix{mine}}); err != nil {
			return err
		}
		transport, cl, err := connect(id, tun)
		if err != nil {
			return err
		}
		if err := cl.Announce(mine, client.AnnounceOptions{}); err != nil {
			return err
		}
		for deadline := time.Now().Add(10 * time.Second); !advertisedHas(first, mine, id); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: advert never booked", id)
			}
		}
		if k == 1 {
			_, _, err := connect(id, tun)
			return err
		}
		return transport.Close()
	}

	// A nested acquisition of the lock hangs the run: end it with every
	// goroutine's stack instead of waiting out the test binary's timeout
	// (the test's cleanup would hang in Close too).
	hang := time.AfterFunc(20*time.Second, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("registry operations still running after 20s:\n%s", buf[:runtime.Stack(buf, true)]))
	})
	defer hang.Stop()
	const clients = 4
	errs := make(chan error, clients+1)
	var work sync.WaitGroup
	work.Add(clients + 1)
	go func() {
		defer work.Done()
		for id := 2; id <= 5; id++ {
			if _, err := srv.AddUpstream(upstream(id)); err != nil {
				errs <- err
				return
			}
		}
	}()
	for k := 1; k <= clients; k++ {
		go func() {
			defer work.Done()
			if err := join(k); err != nil {
				errs <- err
			}
		}()
	}
	stop := make(chan struct{})
	var polls sync.WaitGroup
	polls.Add(1)
	go func() {
		defer polls.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
			_ = srv.Upstreams()
			_ = srv.QueueDepths()
			_ = srv.Stats()
		}
	}()
	work.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// exp1's second connection is the one client left; exp2..4 wait out
	// their restart windows, while exp1's end-of-RIB flushed its stale
	// advert and disarmed its timer.
	armed := func() []string {
		srv.mu.RLock()
		defer srv.mu.RUnlock()
		return slices.Sorted(maps.Keys(srv.restartTimers))
	}
	waitFor(t, "one client left and three restart timers armed", func() bool {
		return srv.ClientCount() == 1 && slices.Equal(armed(), []string{"exp2", "exp3", "exp4"})
	})
	if n := len(srv.Upstreams()); n != 5 {
		t.Fatalf("%d upstreams registered, want 5", n)
	}
	close(stop)
	polls.Wait()
	srv.Close()
	if got := armed(); len(got) != 0 {
		t.Fatalf("restart timers left after Close: %v", got)
	}
}
