// Package policy holds the business side of interdomain routing: the
// Gao–Rexford relationship model that every AS of the synthetic Internet,
// the IXP members and the emulated routers apply at each edge
// ([Relationship], [ShouldExport], [LocalPrefFor]), and the peering
// policies ASes publish at an exchange ([PeeringKind]).
//
// An emulated router is configured per neighbor by relationship alone;
// what it announces and to whom is router.AnnounceSpec. The mux's safety
// filter — prefix ownership, ROA origin and Peerlock rules, the rules
// PEERING applies to what clients announce — is the nested package
// policy/compiled, the one route-filter engine in the tree: a caller
// that needs import rules compiles a compiled.RuleSet and holds the
// compiled.Filter.
package policy

import "peering/internal/rib"

// Relationship classifies the business relationship to a neighbor, from
// the local AS's point of view.
type Relationship int

// Relationship values.
const (
	RelNone     Relationship = iota
	RelCustomer              // neighbor pays us
	RelPeer                  // settlement-free
	RelProvider              // we pay neighbor
)

func (r Relationship) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	default:
		return "none"
	}
}

// ShouldExport implements the Gao–Rexford export rule: a route learned
// from `from` may be exported to `to` only if it was learned from a
// customer (or originated locally, from == RelNone) or is being exported
// to a customer. Everything else would provide free transit. The full
// matrix, learned-from down the side and exported-to across the top:
//
//	from \ to   customer  peer  provider
//	none        yes       yes   yes       (locally originated)
//	customer    yes       yes   yes       (customers pay for reach)
//	peer        yes       no    no        (peer routes only to customers)
//	provider    yes       no    no        (provider routes only to customers)
//
// The two "no" quadrants are exactly the route-leak shapes Peerlock
// rejects at the receiving side (see policy/compiled): a peer or
// provider route re-exported to another peer or provider turns the
// leaking AS into an unpaid transit.
func ShouldExport(from, to Relationship) bool {
	return from == RelCustomer || from == RelNone || to == RelCustomer
}

// LocalPrefFor returns the conventional LOCAL_PREF for a route by the
// relationship it was learned over: customers are most preferred (they
// pay), then peers (free), then providers (we pay).
func LocalPrefFor(rel Relationship) uint32 {
	switch rel {
	case RelCustomer:
		return 300
	case RelPeer:
		return 200
	case RelProvider:
		return 100
	default:
		return rib.DefaultLocalPref
	}
}

// ---------------------------------------------------------------------
// Peering policies (how ASes respond to peering requests, §4.1)

// PeeringKind is an AS's published willingness to peer.
type PeeringKind int

// Peering policy kinds observed at AMS-IX (§4.1): 48 open, 12 closed,
// 40 case-by-case, 15 unlisted among non-route-server members.
const (
	PeeringOpen PeeringKind = iota
	PeeringSelective
	PeeringCaseByCase
	PeeringClosed
	PeeringUnlisted
)

func (k PeeringKind) String() string {
	switch k {
	case PeeringOpen:
		return "open"
	case PeeringSelective:
		return "selective"
	case PeeringCaseByCase:
		return "case-by-case"
	case PeeringClosed:
		return "closed"
	default:
		return "unlisted"
	}
}
