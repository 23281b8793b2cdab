package policy

import (
	"testing"
	"testing/quick"
)

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
