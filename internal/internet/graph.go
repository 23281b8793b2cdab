// Package internet models a synthetic AS-level Internet: a tiered
// topology with customer/provider/peer relationships, per-AS prefix
// origination, CAIDA-style customer-cone ranking, Gao–Rexford route
// propagation, and a popular-content (Alexa-analog) hosting model.
//
// This is the substitute for the live Internet that the real PEERING
// testbed peers with (repro constraint: the paper's evaluation needs
// AMS-IX's 669 members and the global routing system; we generate an
// Internet whose structural distributions are calibrated to the
// figures the paper reports and run the same experiments against it).
package internet

import (
	"fmt"
	"net/netip"
	"sort"

	"peering/internal/policy"
)

// Kind classifies an AS's role in the topology.
type Kind int

// AS kinds.
const (
	KindStub Kind = iota
	KindTransit
	KindTier1
	KindCDN
	KindContent
	KindEyeball
	KindIXPRouteServer
)

func (k Kind) String() string {
	switch k {
	case KindStub:
		return "stub"
	case KindTransit:
		return "transit"
	case KindTier1:
		return "tier1"
	case KindCDN:
		return "cdn"
	case KindContent:
		return "content"
	case KindEyeball:
		return "eyeball"
	case KindIXPRouteServer:
		return "route-server"
	default:
		return "unknown"
	}
}

// AS is one autonomous system in the synthetic Internet.
type AS struct {
	ASN     uint32
	Name    string
	Country string
	Kind    Kind
	// Providers, Customers, Peers hold neighbor ASNs.
	Providers []uint32
	Customers []uint32
	Peers     []uint32
	// Prefixes originated by this AS.
	Prefixes []netip.Prefix
	// PeeringPolicy is the AS's published willingness to peer
	// bilaterally (§4.1).
	PeeringPolicy policy.PeeringKind
}

// Graph is the synthetic Internet.
type Graph struct {
	byASN map[uint32]*AS
	order []uint32 // insertion order for deterministic iteration
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{byASN: make(map[uint32]*AS)}
}

// AddAS inserts a new AS; it panics on duplicate ASNs (generator bug).
func (g *Graph) AddAS(a *AS) *AS {
	if _, dup := g.byASN[a.ASN]; dup {
		panic(fmt.Sprintf("internet: duplicate ASN %d", a.ASN))
	}
	g.byASN[a.ASN] = a
	g.order = append(g.order, a.ASN)
	return a
}

// AS returns the AS with the given number (nil if absent).
func (g *Graph) AS(asn uint32) *AS { return g.byASN[asn] }

// Len returns the number of ASes.
func (g *Graph) Len() int { return len(g.order) }

// ASNs returns all AS numbers in insertion order.
func (g *Graph) ASNs() []uint32 {
	out := make([]uint32, len(g.order))
	copy(out, g.order)
	return out
}

// AddProviderCustomer records a provider→customer relationship.
func (g *Graph) AddProviderCustomer(provider, customer uint32) {
	p, c := g.byASN[provider], g.byASN[customer]
	if p == nil || c == nil {
		panic(fmt.Sprintf("internet: edge %d→%d references unknown AS", provider, customer))
	}
	p.Customers = append(p.Customers, customer)
	c.Providers = append(c.Providers, provider)
}

// AddPeering records a settlement-free peering between a and b.
func (g *Graph) AddPeering(a, b uint32) {
	pa, pb := g.byASN[a], g.byASN[b]
	if pa == nil || pb == nil {
		panic(fmt.Sprintf("internet: peering %d—%d references unknown AS", a, b))
	}
	// Idempotent: skip if already peers.
	for _, x := range pa.Peers {
		if x == b {
			return
		}
	}
	pa.Peers = append(pa.Peers, b)
	pb.Peers = append(pb.Peers, a)
}

// TotalPrefixes counts all originated prefixes.
func (g *Graph) TotalPrefixes() int {
	n := 0
	for _, asn := range g.order {
		n += len(g.byASN[asn].Prefixes)
	}
	return n
}

// CustomerCone returns the set of ASNs in asn's customer cone: the AS
// itself plus everything reachable by repeatedly following customer
// edges (CAIDA's AS-rank metric).
func (g *Graph) CustomerCone(asn uint32) map[uint32]bool {
	cone := make(map[uint32]bool)
	var dfs func(uint32)
	dfs = func(n uint32) {
		if cone[n] {
			return
		}
		cone[n] = true
		a := g.byASN[n]
		if a == nil {
			return
		}
		for _, c := range a.Customers {
			dfs(c)
		}
	}
	dfs(asn)
	return cone
}

// ConeSize returns |CustomerCone(asn)|.
func (g *Graph) ConeSize(asn uint32) int { return len(g.CustomerCone(asn)) }

// ConePrefixes returns every prefix originated inside asn's customer
// cone — exactly the routes asn exports to its peers and providers
// under Gao–Rexford.
func (g *Graph) ConePrefixes(asn uint32) []netip.Prefix {
	var out []netip.Prefix
	for member := range g.CustomerCone(asn) {
		out = append(out, g.byASN[member].Prefixes...)
	}
	return out
}

// RankByCone returns all ASes sorted by descending customer-cone size
// (ties by ascending ASN) — the CAIDA AS-rank analog used for the
// "13 of the top 50, 27 of the top 100" evaluation.
func (g *Graph) RankByCone() []*AS {
	type ranked struct {
		as   *AS
		cone int
	}
	rs := make([]ranked, 0, len(g.order))
	for _, asn := range g.order {
		rs = append(rs, ranked{g.byASN[asn], g.ConeSize(asn)})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].cone != rs[j].cone {
			return rs[i].cone > rs[j].cone
		}
		return rs[i].as.ASN < rs[j].as.ASN
	})
	out := make([]*AS, len(rs))
	for i, r := range rs {
		out[i] = r.as
	}
	return out
}

// Validate checks structural invariants: symmetric relationships, no
// self-loops, and no AS that is both customer and peer of the same
// neighbor. Returns the first violation found.
func (g *Graph) Validate() error {
	for _, asn := range g.order {
		a := g.byASN[asn]
		seen := map[uint32]string{}
		check := func(list []uint32, rel string, reverse func(*AS) []uint32) error {
			for _, n := range list {
				if n == asn {
					return fmt.Errorf("AS%d: self-%s", asn, rel)
				}
				if prev, dup := seen[n]; dup {
					return fmt.Errorf("AS%d: neighbor %d is both %s and %s", asn, n, prev, rel)
				}
				seen[n] = rel
				b := g.byASN[n]
				if b == nil {
					return fmt.Errorf("AS%d: %s %d does not exist", asn, rel, n)
				}
				found := false
				for _, x := range reverse(b) {
					if x == asn {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("AS%d: %s %d lacks reverse edge", asn, rel, n)
				}
			}
			return nil
		}
		if err := check(a.Providers, "provider", func(b *AS) []uint32 { return b.Customers }); err != nil {
			return err
		}
		if err := check(a.Customers, "customer", func(b *AS) []uint32 { return b.Providers }); err != nil {
			return err
		}
		if err := check(a.Peers, "peer", func(b *AS) []uint32 { return b.Peers }); err != nil {
			return err
		}
	}
	return nil
}
