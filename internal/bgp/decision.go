package bgp

import "repro/internal/asn"

// DecisionStep identifies which rule of the BGP decision process chose
// between two routes. The experiment analysis uses this to attribute a
// selection to localpref, path length, or route age (Appendix A).
type DecisionStep uint8

// Decision steps in evaluation order.
const (
	ByNone DecisionStep = iota // routes compared equal on every step
	ByLocalPref
	ByPathLen
	ByOrigin
	ByMED
	ByEBGP
	ByIGPCost
	ByAge
	ByRouterID
)

func (s DecisionStep) String() string {
	switch s {
	case ByNone:
		return "equal"
	case ByLocalPref:
		return "localpref"
	case ByPathLen:
		return "aspath-length"
	case ByOrigin:
		return "origin"
	case ByMED:
		return "med"
	case ByEBGP:
		return "ebgp-over-ibgp"
	case ByIGPCost:
		return "igp-cost"
	case ByAge:
		return "route-age"
	case ByRouterID:
		return "router-id"
	default:
		return "unknown"
	}
}

// candView is a route's decisive attributes: everything the decision
// process reads, with the AS path reduced to its length. Compare views
// both routes it is given; the static solver builds views straight from
// its nodes, with the effective path length computed up front (neighbor
// path plus the neighbor's prepends), so comparing candidates never
// looks inside a path. Fields run widest first, which keeps the view at
// 40 bytes and the solver's staticNode at 80.
type candView struct {
	age    Time // LearnedAt; always 0 in the solver, which models no age
	plen   int
	lp     uint32
	med    uint32
	igp    uint32
	fromAS asn.AS
	from   RouterID
	origin Origin
	ebgp   bool
}

// view makes v r's candView. It stores field by field and compare
// reads the fields back one by one: a view built as a value and then
// copied whole would make the copy's wide loads wait on the narrow
// stores, at several times the cost of the rule order itself.
func (v *candView) view(r *Route) {
	v.age = r.LearnedAt
	v.plen = r.Path.Len()
	v.lp = r.LocalPref
	v.med = r.MED
	v.igp = r.IGPCost
	v.fromAS = r.FromAS
	v.from = r.From
	v.origin = r.Origin
	v.ebgp = r.EBGP
}

// compare is the BGP decision process, the one place its rule order is
// written. It returns a negative value if a is preferred, positive if b
// is preferred, and 0 only if the views tie on every rule (possible
// only when both come from the same neighbor), with the step that
// decided.
//
// The rule order follows the standard implementation (and §2, §A of
// the paper): localpref, AS path length, origin, MED (same neighbor AS
// only), eBGP over iBGP, IGP cost, route age (oldest wins), router ID.
func (a *candView) compare(b *candView) (int, DecisionStep) {
	// 1. Highest localpref.
	if a.lp != b.lp {
		if a.lp > b.lp {
			return -1, ByLocalPref
		}
		return 1, ByLocalPref
	}
	// 2. Shortest AS path.
	if a.plen != b.plen {
		if a.plen < b.plen {
			return -1, ByPathLen
		}
		return 1, ByPathLen
	}
	// 3. Lowest origin.
	if a.origin != b.origin {
		if a.origin < b.origin {
			return -1, ByOrigin
		}
		return 1, ByOrigin
	}
	// 4. Lowest MED, only comparable between routes from the same
	// neighboring AS.
	if a.fromAS == b.fromAS && a.med != b.med {
		if a.med < b.med {
			return -1, ByMED
		}
		return 1, ByMED
	}
	// 5. Prefer eBGP-learned over iBGP-learned.
	if a.ebgp != b.ebgp {
		if a.ebgp {
			return -1, ByEBGP
		}
		return 1, ByEBGP
	}
	// 6. Lowest IGP cost to the exit.
	if a.igp != b.igp {
		if a.igp < b.igp {
			return -1, ByIGPCost
		}
		return 1, ByIGPCost
	}
	// 7. Oldest route (stability preference).
	if a.age != b.age {
		if a.age < b.age {
			return -1, ByAge
		}
		return 1, ByAge
	}
	// 8. Lowest router ID of the advertising speaker.
	if a.from != b.from {
		if a.from < b.from {
			return -1, ByRouterID
		}
		return 1, ByRouterID
	}
	return 0, ByNone
}

// Compare applies the BGP decision process (candView.compare) to routes
// a and b for the same prefix. It returns a negative value if a is
// preferred, positive if b is preferred, and 0 only if the routes tie
// on every rule (possible only when both come from the same neighbor).
// The returned step names the rule that decided.
func Compare(a, b *Route) (int, DecisionStep) {
	var va, vb candView
	va.view(a)
	vb.view(b)
	return va.compare(&vb)
}

// Best returns the preferred route among candidates, together with the
// step that decided the final pairwise comparison won by the winner.
// It returns nil for an empty slice. Candidates must share a prefix.
func Best(candidates []*Route) (*Route, DecisionStep) {
	var best *Route
	step := ByNone
	for _, r := range candidates {
		if r == nil {
			continue
		}
		if best == nil {
			best = r
			continue
		}
		if c, s := Compare(r, best); c < 0 {
			best, step = r, s
		} else if c > 0 {
			step = s
		}
	}
	return best, step
}
