// Package policy implements BGP routing policy: AS-path and community
// matching, import/export statement chains with attribute actions, and
// the Gao–Rexford export rules that govern the economics of interdomain
// route propagation.
//
// Policies are what a PEERING server interposes between clients and the
// real Internet (safety filters) and what the synthetic Internet's ASes
// apply at every edge (business relationships). Two layers share this
// package:
//
//   - The interpreted layer here — [Policy] chains of [Cond] predicates
//     and [Action] attribute rewrites — is the flexible form used by the
//     synthetic Internet's per-edge import/export policies, where every
//     AS has its own chain and routes are evaluated one at a time with
//     clone-on-write attribute mutation.
//   - The compiled layer in the nested package policy/compiled lowers
//     prefix-ownership, ROA origin, and Peerlock rules into an immutable
//     verdict structure for the server's ingest hot path, where a filter
//     faces millions of routes and may not allocate. Prefix lists and
//     origin tables exist only there: a caller that wants one compiles
//     a compiled.RuleSet and holds the compiled.Filter.
//
// Conditions ([MatchCommunity], [MatchASInPath], [MatchOriginAS],
// [MatchMaxPathLen], [MatchAny], [All]) are route predicates; actions ([SetLocalPref], [SetMED], [Prepend],
// [AddCommunity], [RemoveCommunity], [SetNextHop]) rewrite attributes on
// a clone. A [Statement] pairs one condition with actions and an
// accept/reject disposition; a [Policy] is the ordered chain.
package policy

import (
	"fmt"
	"net/netip"

	"peering/internal/rib"
	"peering/internal/wire"
)

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
// Statement policies

// Cond is a route predicate.
type Cond func(*rib.Route) bool

// MatchCommunity matches routes carrying c.
func MatchCommunity(c wire.Community) Cond {
	return func(r *rib.Route) bool { return r.Attrs.HasCommunity(c) }
}

// MatchASInPath matches routes whose AS_PATH contains asn.
func MatchASInPath(asn uint32) Cond {
	return func(r *rib.Route) bool { return r.Attrs.ContainsAS(asn) }
}

// MatchOriginAS matches routes originated by asn.
func MatchOriginAS(asn uint32) Cond {
	return func(r *rib.Route) bool { return r.Attrs.OriginAS() == asn }
}

// MatchMaxPathLen matches routes whose AS_PATH is at most n hops.
func MatchMaxPathLen(n int) Cond {
	return func(r *rib.Route) bool { return r.Attrs.PathLen() <= n }
}

// MatchAny matches everything.
func MatchAny() Cond { return func(*rib.Route) bool { return true } }

// All combines conditions conjunctively.
func All(conds ...Cond) Cond {
	return func(r *rib.Route) bool {
		for _, c := range conds {
			if !c(r) {
				return false
			}
		}
		return true
	}
}

// Action mutates a route's (already cloned) attributes.
type Action func(*rib.Route)

// SetLocalPref sets LOCAL_PREF.
func SetLocalPref(v uint32) Action {
	return func(r *rib.Route) { r.Attrs.LocalPref, r.Attrs.HasLocalPref = v, true }
}

// SetMED sets MULTI_EXIT_DISC.
func SetMED(v uint32) Action {
	return func(r *rib.Route) { r.Attrs.MED, r.Attrs.HasMED = v, true }
}

// Prepend prepends asn count times.
func Prepend(asn uint32, count int) Action {
	return func(r *rib.Route) { r.Attrs.PrependAS(asn, count) }
}

// AddCommunity attaches c.
func AddCommunity(c wire.Community) Action {
	return func(r *rib.Route) { r.Attrs.AddCommunity(c) }
}

// RemoveCommunity detaches c.
func RemoveCommunity(c wire.Community) Action {
	return func(r *rib.Route) { r.Attrs.RemoveCommunity(c) }
}

// SetNextHop rewrites NEXT_HOP.
func SetNextHop(nh netip.Addr) Action {
	return func(r *rib.Route) { r.Attrs.NextHop = nh }
}

// Statement is one policy clause: if Cond matches, run Actions and
// accept or reject.
type Statement struct {
	Name    string
	Cond    Cond
	Actions []Action
	Accept  bool
}

// Policy is an ordered chain of statements with a default disposition.
type Policy struct {
	Name          string
	Statements    []Statement
	AcceptDefault bool
}

// Accept is the identity policy.
var Accept = &Policy{Name: "accept-all", AcceptDefault: true}

// Reject drops everything.
var Reject = &Policy{Name: "reject-all"}

// Apply evaluates the policy on r. It returns a route with (possibly)
// rewritten attributes and true, or nil and false when rejected. The
// input route is never mutated: the first action clones.
func (p *Policy) Apply(r *rib.Route) (*rib.Route, bool) {
	if p == nil {
		return r, true
	}
	for _, s := range p.Statements {
		if s.Cond != nil && !s.Cond(r) {
			continue
		}
		if !s.Accept {
			return nil, false
		}
		if len(s.Actions) == 0 {
			return r, true
		}
		out := *r
		out.Attrs = r.Attrs.Clone()
		for _, a := range s.Actions {
			a(&out)
		}
		return &out, true
	}
	if p.AcceptDefault {
		return r, true
	}
	return nil, false
}

// Then appends a statement, returning p for chaining.
func (p *Policy) Then(s Statement) *Policy {
	p.Statements = append(p.Statements, s)
	return p
}

func (p *Policy) String() string {
	if p == nil {
		return "<nil policy>"
	}
	return fmt.Sprintf("policy %s (%d statements, default %v)", p.Name, len(p.Statements), p.AcceptDefault)
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
