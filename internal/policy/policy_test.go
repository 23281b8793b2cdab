package policy

import (
	"net/netip"
	"testing"
	"testing/quick"

	"peering/internal/rib"
	"peering/internal/wire"
)

func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }

func route(p string, path ...uint32) *rib.Route {
	return &rib.Route{
		Prefix: prefix(p),
		Attrs: &wire.Attrs{
			Origin:  wire.OriginIGP,
			ASPath:  []wire.Segment{{Type: wire.SegSequence, ASNs: path}},
			NextHop: addr("192.0.2.1"),
		},
		Src: rib.PeerKey{Addr: addr("192.0.2.1")},
	}
}

func TestShouldExportGaoRexford(t *testing.T) {
	cases := []struct {
		from, to Relationship
		want     bool
	}{
		// Customer routes go everywhere.
		{RelCustomer, RelCustomer, true},
		{RelCustomer, RelPeer, true},
		{RelCustomer, RelProvider, true},
		// Own routes go everywhere.
		{RelNone, RelPeer, true},
		{RelNone, RelProvider, true},
		// Peer/provider routes only to customers.
		{RelPeer, RelCustomer, true},
		{RelProvider, RelCustomer, true},
		{RelPeer, RelPeer, false},
		{RelPeer, RelProvider, false},
		{RelProvider, RelPeer, false},
		{RelProvider, RelProvider, false},
	}
	for _, c := range cases {
		if got := ShouldExport(c.from, c.to); got != c.want {
			t.Errorf("ShouldExport(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestLocalPrefOrdering(t *testing.T) {
	if !(LocalPrefFor(RelCustomer) > LocalPrefFor(RelPeer) && LocalPrefFor(RelPeer) > LocalPrefFor(RelProvider)) {
		t.Fatal("relationship preference order violated")
	}
}

func TestPolicyApplyAcceptRejectDefault(t *testing.T) {
	p := (&Policy{Name: "test"}).
		Then(Statement{Cond: MatchOriginAS(666), Accept: false}).
		Then(Statement{Cond: func(r *rib.Route) bool {
			return prefix("10.0.0.0/8").Contains(r.Prefix.Addr()) && r.Prefix.Bits() <= 24
		}, Accept: true})

	if _, ok := p.Apply(route("10.0.0.0/16", 100, 666)); ok {
		t.Fatal("route from bad origin accepted")
	}
	if _, ok := p.Apply(route("10.0.0.0/16", 100, 200)); !ok {
		t.Fatal("permitted prefix rejected")
	}
	if _, ok := p.Apply(route("192.168.0.0/16", 100, 200)); ok {
		t.Fatal("default deny not applied")
	}
}

func TestPolicyActionsCloneNotMutate(t *testing.T) {
	p := (&Policy{Name: "act"}).Then(Statement{
		Cond:   MatchAny(),
		Accept: true,
		Actions: []Action{
			SetLocalPref(250),
			Prepend(47065, 2),
			AddCommunity(wire.MakeCommunity(47065, 1)),
			SetMED(10),
		},
	})
	in := route("10.0.0.0/16", 100, 200)
	out, ok := p.Apply(in)
	if !ok {
		t.Fatal("rejected")
	}
	if !out.Attrs.HasLocalPref || out.Attrs.LocalPref != 250 {
		t.Fatalf("local pref = %+v", out.Attrs)
	}
	if out.Attrs.PathString() != "47065 47065 100 200" {
		t.Fatalf("path = %q", out.Attrs.PathString())
	}
	if !out.Attrs.HasCommunity(wire.MakeCommunity(47065, 1)) || !out.Attrs.HasMED || out.Attrs.MED != 10 {
		t.Fatalf("attrs = %+v", out.Attrs)
	}
	// Input untouched.
	if in.Attrs.HasLocalPref || in.Attrs.PathLen() != 2 || len(in.Attrs.Communities) != 0 {
		t.Fatal("policy mutated input route")
	}
}

func TestPolicyNoActionsReturnsSameRoute(t *testing.T) {
	p := (&Policy{}).Then(Statement{Cond: MatchAny(), Accept: true})
	in := route("10.0.0.0/16", 100)
	out, ok := p.Apply(in)
	if !ok || out != in {
		t.Fatal("actionless accept should pass route through unchanged")
	}
}

func TestNilPolicyAccepts(t *testing.T) {
	var p *Policy
	in := route("10.0.0.0/16", 100)
	out, ok := p.Apply(in)
	if !ok || out != in {
		t.Fatal("nil policy must accept unchanged")
	}
}

func TestConditions(t *testing.T) {
	r := route("10.0.0.0/16", 100, 200, 300)
	r.Attrs.AddCommunity(wire.CommNoExport)
	if !MatchCommunity(wire.CommNoExport)(r) || MatchCommunity(wire.CommNoAdvertise)(r) {
		t.Fatal("MatchCommunity wrong")
	}
	if !MatchASInPath(200)(r) || MatchASInPath(999)(r) {
		t.Fatal("MatchASInPath wrong")
	}
	if !MatchOriginAS(300)(r) || MatchOriginAS(100)(r) {
		t.Fatal("MatchOriginAS wrong")
	}
	if !MatchMaxPathLen(3)(r) || MatchMaxPathLen(2)(r) {
		t.Fatal("MatchMaxPathLen wrong")
	}
	if !All(MatchASInPath(200), MatchOriginAS(300))(r) {
		t.Fatal("All conjunction wrong")
	}
	if All(MatchASInPath(200), MatchOriginAS(999))(r) {
		t.Fatal("All should fail when any cond fails")
	}
}

func TestRemoveCommunityAction(t *testing.T) {
	p := (&Policy{}).Then(Statement{Cond: MatchAny(), Accept: true,
		Actions: []Action{RemoveCommunity(wire.CommNoExport)}})
	r := route("10.0.0.0/16", 100)
	r.Attrs.AddCommunity(wire.CommNoExport)
	out, _ := p.Apply(r)
	if out.Attrs.HasCommunity(wire.CommNoExport) {
		t.Fatal("community not removed")
	}
	if !r.Attrs.HasCommunity(wire.CommNoExport) {
		t.Fatal("input mutated")
	}
}

func TestSetNextHopAction(t *testing.T) {
	p := (&Policy{}).Then(Statement{Cond: MatchAny(), Accept: true,
		Actions: []Action{SetNextHop(addr("203.0.113.9"))}})
	out, _ := p.Apply(route("10.0.0.0/16", 100))
	if out.Attrs.NextHop != addr("203.0.113.9") {
		t.Fatalf("next hop = %v", out.Attrs.NextHop)
	}
}

// Property: for any relationship pair, a route is exported through two
// hops only if the valley-free condition holds end to end. This encodes
// "no free transit": once a route travels peer→ or provider→, it can
// only ever descend to customers.
func TestQuickValleyFree(t *testing.T) {
	rels := []Relationship{RelCustomer, RelPeer, RelProvider}
	f := func(a, b uint8) bool {
		from, mid := rels[int(a)%3], rels[int(b)%3]
		// If hop 1 (from → us) was not from a customer, we may only
		// export to customers; check every possible second hop.
		if ShouldExport(from, mid) && from != RelCustomer {
			return mid == RelCustomer
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPeeringKindString(t *testing.T) {
	kinds := map[PeeringKind]string{
		PeeringOpen: "open", PeeringSelective: "selective",
		PeeringCaseByCase: "case-by-case", PeeringClosed: "closed", PeeringUnlisted: "unlisted",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%v.String() = %q", int(k), k.String())
		}
	}
}
