package router

import (
	"net/netip"
	"testing"
	"time"

	"peering/internal/bufconn"
	"peering/internal/policy"
	"peering/internal/rib"
	"peering/internal/wire"
)

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// connect wires two routers together with the given configs and waits
// for establishment.
func connect(t *testing.T, a, b *Router, pa, pb PeerConfig) (*Peer, *Peer) {
	t.Helper()
	peerA := a.AddPeer(pa)
	peerB := b.AddPeer(pb)
	ca, cb := bufconn.Pipe()
	sa := a.Attach(peerA, ca)
	sb := b.Attach(peerB, cb)
	waitFor(t, func() bool { return peerA.Established() && peerB.Established() })
	_ = sa
	_ = sb
	return peerA, peerB
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}

// newPair builds two eBGP routers A(AS 100, 10.0.0.1) and B(AS 200,
// 10.0.0.2) and connects them.
func newPair(t *testing.T, mod func(pa, pb *PeerConfig)) (*Router, *Router) {
	t.Helper()
	a := New(Config{AS: 100, RouterID: addr("10.0.0.1")})
	b := New(Config{AS: 200, RouterID: addr("10.0.0.2")})
	pa := PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.1"), AS: 200, Describe: "B"}
	pb := PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"), AS: 100, Describe: "A"}
	if mod != nil {
		mod(&pa, &pb)
	}
	connect(t, a, b, pa, pb)
	return a, b
}

func TestAnnouncePropagates(t *testing.T) {
	a, b := newPair(t, nil)
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{})
	waitFor(t, func() bool { return b.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	rt := b.LocRIB().Best(prefix("100.64.0.0/24"))
	if rt.Attrs.PathString() != "100" {
		t.Fatalf("path = %q, want \"100\"", rt.Attrs.PathString())
	}
	if rt.Attrs.NextHop != addr("10.0.0.1") {
		t.Fatalf("next hop = %v", rt.Attrs.NextHop)
	}
	if rt.PeerAS != 100 || !rt.EBGP {
		t.Fatalf("route meta = %+v", rt)
	}
	if pb := a.Peer(addr("10.0.0.2")); pb.RoutesOut() != 1 {
		t.Fatalf("A adj-out = %d", pb.RoutesOut())
	}
}

func TestWithdrawPropagates(t *testing.T) {
	a, b := newPair(t, nil)
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{})
	waitFor(t, func() bool { return b.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	a.Withdraw(prefix("100.64.0.0/24"))
	waitFor(t, func() bool { return b.LocRIB().Best(prefix("100.64.0.0/24")) == nil })
	if b.LocRIB().Prefixes() != 0 {
		t.Fatalf("B still has %d prefixes", b.LocRIB().Prefixes())
	}
}

func TestFullTableOnSessionUp(t *testing.T) {
	// Announce before the session exists; peer must receive the table
	// when it comes up.
	a := New(Config{AS: 100, RouterID: addr("10.0.0.1")})
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{})
	a.Announce(prefix("100.64.1.0/24"), AnnounceSpec{})
	b := New(Config{AS: 200, RouterID: addr("10.0.0.2")})
	connect(t, a, b,
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.1"), AS: 200},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"), AS: 100})
	waitFor(t, func() bool { return b.LocRIB().Prefixes() == 2 })
}

func TestTransitPropagation(t *testing.T) {
	// A(100) — B(200) — C(300): C learns A's prefix through B with
	// path "200 100".
	a := New(Config{AS: 100, RouterID: addr("10.0.0.1")})
	b := New(Config{AS: 200, RouterID: addr("10.0.0.2")})
	c := New(Config{AS: 300, RouterID: addr("10.0.0.3")})
	connect(t, a, b,
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.1"), AS: 200},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"), AS: 100})
	connect(t, b, c,
		PeerConfig{Addr: addr("10.0.0.3"), LocalAddr: addr("10.0.0.2"), AS: 300},
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.3"), AS: 200})
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{})
	waitFor(t, func() bool { return c.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	rt := c.LocRIB().Best(prefix("100.64.0.0/24"))
	if rt.Attrs.PathString() != "200 100" {
		t.Fatalf("path = %q", rt.Attrs.PathString())
	}
	// Next hop rewritten at each eBGP hop: C sees B's address.
	if rt.Attrs.NextHop != addr("10.0.0.2") {
		t.Fatalf("next hop = %v", rt.Attrs.NextHop)
	}
}

func TestLoopPreventionDropsOwnAS(t *testing.T) {
	// A ring A—B, B—C, C—A: A's announcement must not loop back into
	// A's RIB from C.
	a := New(Config{AS: 100, RouterID: addr("10.0.0.1")})
	b := New(Config{AS: 200, RouterID: addr("10.0.0.2")})
	c := New(Config{AS: 300, RouterID: addr("10.0.0.3")})
	connect(t, a, b,
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.1"), AS: 200},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"), AS: 100})
	connect(t, b, c,
		PeerConfig{Addr: addr("10.0.0.3"), LocalAddr: addr("10.0.0.2"), AS: 300},
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.3"), AS: 200})
	connect(t, c, a,
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.3"), AS: 100},
		PeerConfig{Addr: addr("10.0.0.3"), LocalAddr: addr("10.0.0.1"), AS: 300})
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{})
	waitFor(t, func() bool { return c.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	time.Sleep(50 * time.Millisecond) // let any loop propagate
	// A's RIB contains only its own route (locally originated).
	cands := a.LocRIB().Candidates(prefix("100.64.0.0/24"))
	for _, r := range cands {
		if r.Src.Addr.IsValid() {
			t.Fatalf("A learned its own prefix from %v: loop", r.Src)
		}
	}
}

func TestSelectiveAnnouncement(t *testing.T) {
	// A peers with B and C; announces a prefix to B only.
	a := New(Config{AS: 100, RouterID: addr("10.0.0.1")})
	b := New(Config{AS: 200, RouterID: addr("10.0.0.2")})
	c := New(Config{AS: 300, RouterID: addr("10.0.0.3")})
	connect(t, a, b,
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.1"), AS: 200},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"), AS: 100})
	connect(t, a, c,
		PeerConfig{Addr: addr("10.0.0.3"), LocalAddr: addr("10.0.0.1"), AS: 300},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.3"), AS: 100})
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{Peers: []netip.Addr{addr("10.0.0.2")}})
	waitFor(t, func() bool { return b.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	time.Sleep(50 * time.Millisecond)
	if c.LocRIB().Best(prefix("100.64.0.0/24")) != nil {
		t.Fatal("C received announcement steered to B only")
	}
	// Re-announce to all: C gets it too.
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{})
	waitFor(t, func() bool { return c.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
}

func TestPrependAndPoison(t *testing.T) {
	a, b := newPair(t, nil)
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{Prepend: 2, Poison: []uint32{3356}})
	waitFor(t, func() bool { return b.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	rt := b.LocRIB().Best(prefix("100.64.0.0/24"))
	if got := rt.Attrs.PathString(); got != "100 100 100 3356" {
		t.Fatalf("path = %q, want \"100 100 100 3356\"", got)
	}
}

func TestCommunityAttachedAndMED(t *testing.T) {
	a, b := newPair(t, nil)
	comm := wire.MakeCommunity(47065, 2914)
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{Communities: []wire.Community{comm}, MED: 77, MEDSet: true})
	waitFor(t, func() bool { return b.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	rt := b.LocRIB().Best(prefix("100.64.0.0/24"))
	if !rt.Attrs.HasCommunity(comm) {
		t.Fatal("community lost")
	}
	if !rt.Attrs.HasMED || rt.Attrs.MED != 77 {
		t.Fatalf("MED = %+v", rt.Attrs)
	}
}

func TestNoExportCommunityHonored(t *testing.T) {
	// A —eBGP— B —eBGP— C with NO_EXPORT: B keeps it, C never sees it.
	a := New(Config{AS: 100, RouterID: addr("10.0.0.1")})
	b := New(Config{AS: 200, RouterID: addr("10.0.0.2")})
	c := New(Config{AS: 300, RouterID: addr("10.0.0.3")})
	connect(t, a, b,
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.1"), AS: 200},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"), AS: 100})
	connect(t, b, c,
		PeerConfig{Addr: addr("10.0.0.3"), LocalAddr: addr("10.0.0.2"), AS: 300},
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.3"), AS: 200})
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{Communities: []wire.Community{wire.CommNoExport}})
	waitFor(t, func() bool { return b.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	time.Sleep(50 * time.Millisecond)
	if c.LocRIB().Best(prefix("100.64.0.0/24")) != nil {
		t.Fatal("NO_EXPORT route leaked to C")
	}
}

func TestGaoRexfordNoTransitBetweenPeers(t *testing.T) {
	// B peers (settlement-free) with both A and C. A's routes must not
	// transit B to C.
	a := New(Config{AS: 100, RouterID: addr("10.0.0.1")})
	b := New(Config{AS: 200, RouterID: addr("10.0.0.2")})
	c := New(Config{AS: 300, RouterID: addr("10.0.0.3")})
	connect(t, a, b,
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.1"), AS: 200, Relationship: policy.RelPeer},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"), AS: 100, Relationship: policy.RelPeer})
	connect(t, b, c,
		PeerConfig{Addr: addr("10.0.0.3"), LocalAddr: addr("10.0.0.2"), AS: 300, Relationship: policy.RelPeer},
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.3"), AS: 200, Relationship: policy.RelPeer})
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{})
	waitFor(t, func() bool { return b.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	time.Sleep(50 * time.Millisecond)
	if c.LocRIB().Best(prefix("100.64.0.0/24")) != nil {
		t.Fatal("peer route transited B — valley-free violated")
	}
}

func TestGaoRexfordCustomerRoutesExported(t *testing.T) {
	// A is B's customer; C is B's peer. A's routes DO reach C.
	a := New(Config{AS: 100, RouterID: addr("10.0.0.1")})
	b := New(Config{AS: 200, RouterID: addr("10.0.0.2")})
	c := New(Config{AS: 300, RouterID: addr("10.0.0.3")})
	connect(t, a, b,
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.1"), AS: 200, Relationship: policy.RelProvider},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"), AS: 100, Relationship: policy.RelCustomer})
	connect(t, b, c,
		PeerConfig{Addr: addr("10.0.0.3"), LocalAddr: addr("10.0.0.2"), AS: 300, Relationship: policy.RelPeer},
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.3"), AS: 200, Relationship: policy.RelPeer})
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{})
	waitFor(t, func() bool { return c.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	// And the customer-learned route carries customer LOCAL_PREF in B.
	rt := b.LocRIB().Best(prefix("100.64.0.0/24"))
	if rt.LocalPref() != policy.LocalPrefFor(policy.RelCustomer) {
		t.Fatalf("B's local pref = %d", rt.LocalPref())
	}
}

func TestPoisonedReannounceWithdrawsImplicitly(t *testing.T) {
	// A(100) — B(200) — C(300). A announces P, then re-announces it
	// poisoned with B's ASN. B must treat the poisoned advertisement as
	// an implicit withdraw of the route it holds from A (RFC 4271 §9,
	// LIFEGUARD's mechanism): drop it from its Adj-RIB-In and Loc-RIB,
	// and withdraw it from C.
	a := New(Config{AS: 100, RouterID: addr("10.0.0.1")})
	b := New(Config{AS: 200, RouterID: addr("10.0.0.2")})
	c := New(Config{AS: 300, RouterID: addr("10.0.0.3")})
	connect(t, a, b,
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.1"), AS: 200},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"), AS: 100})
	connect(t, b, c,
		PeerConfig{Addr: addr("10.0.0.3"), LocalAddr: addr("10.0.0.2"), AS: 300},
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.3"), AS: 200})
	p := prefix("100.64.0.0/24")
	fromA := b.Peer(addr("10.0.0.1"))

	a.Announce(p, AnnounceSpec{})
	waitFor(t, func() bool { return c.LocRIB().Best(p) != nil })
	if n := fromA.RoutesIn(); n != 1 {
		t.Fatalf("B's Adj-RIB-In from A holds %d routes, want 1", n)
	}

	a.Announce(p, AnnounceSpec{Poison: []uint32{200}})
	waitFor(t, func() bool { return fromA.RoutesIn() == 0 })
	waitFor(t, func() bool { return b.LocRIB().Best(p) == nil })
	waitFor(t, func() bool { return c.LocRIB().Best(p) == nil })
}

func TestPrivateASNStripping(t *testing.T) {
	a := New(Config{AS: 100, RouterID: addr("10.0.0.1"), StripPrivateASNs: true})
	b := New(Config{AS: 200, RouterID: addr("10.0.0.2")})
	connect(t, a, b,
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.1"), AS: 200},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"), AS: 100})
	// Emulated domain behind A uses private ASNs 65010, 65011.
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{OriginASNs: []uint32{65010, 65011}})
	waitFor(t, func() bool { return b.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	rt := b.LocRIB().Best(prefix("100.64.0.0/24"))
	if got := rt.Attrs.PathString(); got != "100" {
		t.Fatalf("path = %q — private ASNs leaked", got)
	}
}

func TestIBGPNoReexportToIBGP(t *testing.T) {
	// Three iBGP routers in AS 100: r1 — r2 — r3 chain (NOT full mesh).
	// r1's external route reaches r2 but must not be re-exported to r3.
	r1 := New(Config{AS: 100, RouterID: addr("10.0.0.1")})
	r2 := New(Config{AS: 100, RouterID: addr("10.0.0.2")})
	r3 := New(Config{AS: 100, RouterID: addr("10.0.0.3")})
	connect(t, r1, r2,
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.1"), AS: 100, Internal: true},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"), AS: 100, Internal: true})
	connect(t, r2, r3,
		PeerConfig{Addr: addr("10.0.0.3"), LocalAddr: addr("10.0.0.2"), AS: 100, Internal: true},
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.3"), AS: 100, Internal: true})
	// External route injected at r1 (simulate: r1 originates).
	// Locally originated routes ARE exported to iBGP peers.
	r1.Announce(prefix("100.64.0.0/24"), AnnounceSpec{})
	waitFor(t, func() bool { return r2.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	rt := r2.LocRIB().Best(prefix("100.64.0.0/24"))
	if rt.Attrs.PathString() != "" {
		t.Fatalf("iBGP path = %q, want empty (no prepend)", rt.Attrs.PathString())
	}
	if rt.EBGP {
		t.Fatal("iBGP route marked eBGP")
	}
	time.Sleep(50 * time.Millisecond)
	if r3.LocRIB().Best(prefix("100.64.0.0/24")) != nil {
		t.Fatal("iBGP-learned route re-exported to iBGP peer")
	}
}

func TestIBGPPreservesLocalPref(t *testing.T) {
	// r0 (AS 50) is r1's eBGP customer; r1 and r2 share AS 100 over
	// iBGP. The LOCAL_PREF r1 assigns its customer route on import must
	// reach r2 unchanged: LOCAL_PREF crosses iBGP, not eBGP.
	r0 := New(Config{AS: 50, RouterID: addr("10.0.0.9")})
	r1 := New(Config{AS: 100, RouterID: addr("10.0.0.1")})
	r2 := New(Config{AS: 100, RouterID: addr("10.0.0.2")})
	connect(t, r0, r1,
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.9"), AS: 100, Relationship: policy.RelProvider},
		PeerConfig{Addr: addr("10.0.0.9"), LocalAddr: addr("10.0.0.1"), AS: 50, Relationship: policy.RelCustomer})
	connect(t, r1, r2,
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.1"), AS: 100, Internal: true},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"), AS: 100, Internal: true})
	r0.Announce(prefix("100.64.0.0/24"), AnnounceSpec{})
	waitFor(t, func() bool { return r2.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	rt := r2.LocRIB().Best(prefix("100.64.0.0/24"))
	if want := policy.LocalPrefFor(policy.RelCustomer); !rt.Attrs.HasLocalPref || rt.Attrs.LocalPref != want {
		t.Fatalf("LOCAL_PREF across iBGP = %+v, want %d", rt.Attrs, want)
	}
}

func TestBestPathSwitchesOnBetterRoute(t *testing.T) {
	// C hears the same prefix from A (long path) and B (short path).
	a := New(Config{AS: 100, RouterID: addr("10.0.0.1")})
	b := New(Config{AS: 200, RouterID: addr("10.0.0.2")})
	c := New(Config{AS: 300, RouterID: addr("10.0.0.3")})
	connect(t, a, c,
		PeerConfig{Addr: addr("10.0.0.3"), LocalAddr: addr("10.0.0.1"), AS: 300},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.3"), AS: 100})
	connect(t, b, c,
		PeerConfig{Addr: addr("10.0.0.3"), LocalAddr: addr("10.0.0.2"), AS: 300},
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.3"), AS: 200})
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{Prepend: 3})
	waitFor(t, func() bool { return c.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	if got := c.LocRIB().Best(prefix("100.64.0.0/24")).PeerAS; got != 100 {
		t.Fatalf("initial best from AS %d", got)
	}
	b.Announce(prefix("100.64.0.0/24"), AnnounceSpec{})
	waitFor(t, func() bool {
		rt := c.LocRIB().Best(prefix("100.64.0.0/24"))
		return rt != nil && rt.PeerAS == 200
	})
	// Withdraw the better route: falls back to A.
	b.Withdraw(prefix("100.64.0.0/24"))
	waitFor(t, func() bool {
		rt := c.LocRIB().Best(prefix("100.64.0.0/24"))
		return rt != nil && rt.PeerAS == 100
	})
}

func TestOnBestChangeFires(t *testing.T) {
	a := New(Config{AS: 100, RouterID: addr("10.0.0.1")})
	b := New(Config{AS: 200, RouterID: addr("10.0.0.2")})
	changes := make(chan rib.Change, 16)
	b.OnBestChange(func(ch rib.Change) { changes <- ch })
	connect(t, a, b,
		PeerConfig{Addr: addr("10.0.0.2"), LocalAddr: addr("10.0.0.1"), AS: 200},
		PeerConfig{Addr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"), AS: 100})
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{})
	select {
	case ch := <-changes:
		if ch.New == nil || ch.New.Prefix != prefix("100.64.0.0/24") {
			t.Fatalf("change = %+v", ch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnBestChange never fired")
	}
}

func TestSessionTeardownWithdrawsRoutes(t *testing.T) {
	a, b := newPair(t, nil)
	a.Announce(prefix("100.64.0.0/24"), AnnounceSpec{})
	waitFor(t, func() bool { return b.LocRIB().Best(prefix("100.64.0.0/24")) != nil })
	// Kill the session from A's side.
	a.Peer(addr("10.0.0.2")).Session().Close()
	waitFor(t, func() bool { return b.LocRIB().Best(prefix("100.64.0.0/24")) == nil })
}
