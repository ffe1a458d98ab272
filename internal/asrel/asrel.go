// Package asrel infers AS business relationships from observed BGP
// AS paths, in the style of Gao's degree-based algorithm (ToN 2001) —
// the lineage behind the CAIDA AS-relationship datasets the routing-
// modeling literature (and the paper's §2.2 context) builds on. The
// reproduction uses it to show what a third party could recover about
// the simulated economy from public views alone, and to ground the
// claim that relationship inference is not enough: relationships
// without localpref still mispredict route choice.
package asrel

import (
	"sort"

	"repro/internal/asn"
)

// Rel is an inferred relationship between two ASes, directional from
// the first AS's point of view.
type Rel uint8

// Relationships.
const (
	// RelNone: edge never observed.
	RelNone Rel = iota
	// RelProviderOf: the first AS sells transit to the second.
	RelProviderOf
	// RelCustomerOf: the first AS buys transit from the second.
	RelCustomerOf
	// RelPeer: settlement-free peers.
	RelPeer
)

func (r Rel) String() string {
	switch r {
	case RelProviderOf:
		return "provider-of"
	case RelCustomerOf:
		return "customer-of"
	case RelPeer:
		return "peer"
	default:
		return "none"
	}
}

// Invert flips direction.
func (r Rel) Invert() Rel {
	switch r {
	case RelProviderOf:
		return RelCustomerOf
	case RelCustomerOf:
		return RelProviderOf
	default:
		return r
	}
}

// edge is an unordered AS pair with a canonical order.
type edge struct{ a, b asn.AS }

func mkEdge(x, y asn.AS) edge {
	if x < y {
		return edge{x, y}
	}
	return edge{y, x}
}

// Infer runs the two-pass algorithm over the observed AS paths
// (nearest AS first, origin last) that paths yields, reading them
// twice and keeping none: the first pass collapses each path
// (prepending and poisoned repeats removed) and counts each AS's degree
// as its edges are first seen, the second collapses it again and votes
// on edge directions around its highest-degree AS. paths has the shape
// of iter.Seq[asn.Path]: each path need hold only during its yield.
func Infer(paths func(yield func(asn.Path) bool)) *Result {
	// votes[e] counts the paths where e.a transited for e.b ([0]) and
	// where e.b transited for e.a ([1]); its key set is the edge set.
	votes := make(map[edge][2]int32)
	degree := make(map[asn.AS]int32)
	var u asn.Path // one collapsed path
	paths(func(p asn.Path) bool {
		u = p.AppendUnique(u[:0])
		for i := 0; i+1 < len(u); i++ {
			e := mkEdge(u[i], u[i+1])
			if _, seen := votes[e]; !seen {
				votes[e] = [2]int32{}
				degree[e.a]++
				degree[e.b]++
			}
		}
		return true
	})

	vote := func(prov, cust asn.AS) {
		e := mkEdge(prov, cust)
		v := votes[e]
		if e.a == prov {
			v[0]++
		} else {
			v[1]++
		}
		votes[e] = v
	}
	paths(func(p asn.Path) bool {
		u = p.AppendUnique(u[:0])
		// Find the top provider: the first highest-degree AS. A path
		// of one AS has no edge to vote on.
		top := 0
		for i := 1; i < len(u); i++ {
			if degree[u[i]] > degree[u[top]] {
				top = i
			}
		}
		// Left of top (collector side): the route descends
		// provider->customer toward the observation point, so u[i+1]
		// is provider of u[i]. Right of top (origin side): the route
		// climbed customer->provider away from the origin, so u[i] is
		// provider of u[i+1].
		for i := 0; i+1 <= top; i++ {
			vote(u[i+1], u[i])
		}
		for i := top; i+1 < len(u); i++ {
			vote(u[i], u[i+1])
		}
		return true
	})

	// Every adjacent pair of a path got exactly one vote, so every edge
	// has at least one.
	res := &Result{rels: make(map[edge]Rel, len(votes))}
	for e, v := range votes {
		ab, ba := v[0], v[1]
		switch {
		case ab >= 3*ba:
			res.rels[e] = RelProviderOf // e.a provider of e.b
		case ba >= 3*ab:
			res.rels[e] = RelCustomerOf // e.a customer of e.b
		default:
			res.rels[e] = RelPeer
		}
	}
	return res
}

// Paths yields paths in order: a slice as Infer's path source.
func Paths(paths []asn.Path) func(yield func(asn.Path) bool) {
	return func(yield func(asn.Path) bool) {
		for _, p := range paths {
			if !yield(p) {
				return
			}
		}
	}
}

// Result holds inferred relationships.
type Result struct {
	rels map[edge]Rel
}

// Rel returns the inferred relationship of a toward b.
func (r *Result) Rel(a, b asn.AS) Rel {
	e := mkEdge(a, b)
	rel, ok := r.rels[e]
	if !ok {
		return RelNone
	}
	if e.a == a {
		return rel
	}
	return rel.Invert()
}

// Edges returns all inferred edges in a deterministic order.
func (r *Result) Edges() []InferredEdge {
	out := make([]InferredEdge, 0, len(r.rels))
	for e, rel := range r.rels {
		out = append(out, InferredEdge{A: e.a, B: e.b, Rel: rel})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Len returns the number of inferred edges.
func (r *Result) Len() int { return len(r.rels) }

// InferredEdge is one edge with its relationship (A's view of B).
type InferredEdge struct {
	A, B asn.AS
	Rel  Rel
}
