package asrel

import "repro/internal/asn"

// Inferrer is the two-call inferrer Infer replaced, kept as the oracle
// of the differential tests: AddPath collapses each path and records
// its adjacencies, then Infer collapses the same paths again and votes.
// Its collapse is a set of seen ASes, independent of asn.AppendUnique.
type Inferrer struct {
	neighbors map[asn.AS]map[asn.AS]bool
	// transit votes: votes[edge] counts paths where edge.a acted as
	// transit provider of edge.b (positive) or vice versa (negative
	// bucket kept separately for ratios).
	votesAB map[edge]int // a provider of b
	votesBA map[edge]int // b provider of a
	paths   int
}

// NewInferrer returns an empty inferrer.
func NewInferrer() *Inferrer {
	return &Inferrer{
		neighbors: make(map[asn.AS]map[asn.AS]bool),
		votesAB:   make(map[edge]int),
		votesBA:   make(map[edge]int),
	}
}

// uniqueBySet returns the distinct ASes of p in path order.
func uniqueBySet(p asn.Path) asn.Path {
	seen := make(map[asn.AS]bool, len(p))
	out := make(asn.Path, 0, len(p))
	for _, a := range p {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// AddPath feeds one observed AS path (nearest AS first, origin last).
// Prepending is collapsed before analysis.
func (inf *Inferrer) AddPath(p asn.Path) {
	u := uniqueBySet(p)
	if len(u) < 2 {
		return
	}
	inf.paths++
	for i := 0; i+1 < len(u); i++ {
		inf.link(u[i], u[i+1])
	}
}

func (inf *Inferrer) link(a, b asn.AS) {
	if inf.neighbors[a] == nil {
		inf.neighbors[a] = make(map[asn.AS]bool)
	}
	if inf.neighbors[b] == nil {
		inf.neighbors[b] = make(map[asn.AS]bool)
	}
	inf.neighbors[a][b] = true
	inf.neighbors[b][a] = true
}

// Degree returns an AS's observed neighbor count.
func (inf *Inferrer) Degree(a asn.AS) int { return len(inf.neighbors[a]) }

// vote records that prov transited for cust in one path.
func (inf *Inferrer) vote(prov, cust asn.AS) {
	e := mkEdge(prov, cust)
	if e.a == prov {
		inf.votesAB[e]++
	} else {
		inf.votesBA[e]++
	}
}

// Infer runs the two-pass algorithm: first build degrees from all
// paths (done incrementally by AddPath), then replay the paths to vote
// on edge directions around each path's highest-degree AS. Callers
// pass the same path set again (the inferrer does not retain paths, to
// keep memory proportional to the topology, not the trace).
func (inf *Inferrer) Infer(paths []asn.Path) *Result {
	for _, p := range paths {
		u := uniqueBySet(p)
		if len(u) < 2 {
			continue
		}
		// Find the top provider: the highest-degree AS.
		top := 0
		for i := 1; i < len(u); i++ {
			if inf.Degree(u[i]) > inf.Degree(u[top]) {
				top = i
			}
		}
		// Left of top (collector side): the route descends
		// provider->customer toward the observation point, so u[i+1]
		// is provider of u[i]. Right of top (origin side): the route
		// climbed customer->provider away from the origin, so u[i] is
		// provider of u[i+1].
		for i := 0; i+1 <= top; i++ {
			inf.vote(u[i+1], u[i])
		}
		for i := top; i+1 < len(u); i++ {
			inf.vote(u[i], u[i+1])
		}
	}

	res := &Result{rels: make(map[edge]Rel, len(inf.votesAB)+len(inf.votesBA))}
	edges := make(map[edge]bool)
	for a, nbs := range inf.neighbors {
		for b := range nbs {
			edges[mkEdge(a, b)] = true
		}
	}
	for e := range edges {
		ab, ba := inf.votesAB[e], inf.votesBA[e]
		switch {
		case ab > 0 && ba == 0:
			res.rels[e] = RelProviderOf // e.a provider of e.b
		case ba > 0 && ab == 0:
			res.rels[e] = RelCustomerOf // e.a customer of e.b
		case ab == 0 && ba == 0:
			res.rels[e] = RelPeer
		case ab >= 3*ba:
			res.rels[e] = RelProviderOf
		case ba >= 3*ab:
			res.rels[e] = RelCustomerOf
		default:
			res.rels[e] = RelPeer
		}
	}
	return res
}

// referenceInfer is the oracle's two calls over one path set.
func referenceInfer(paths []asn.Path) *Result {
	inf := NewInferrer()
	for _, p := range paths {
		inf.AddPath(p)
	}
	return inf.Infer(paths)
}

// slabInfer is the slice form Infer replaced, kept as the oracle of the
// path-source form: each path is collapsed once (prepending and
// poisoned repeats removed) into one slab; the first pass counts each
// AS's degree as its edges are first seen, the second votes on edge
// directions around each path's highest-degree AS over the slab.
func slabInfer(paths []asn.Path) *Result {
	hops := 0
	for _, p := range paths {
		hops += len(p)
	}
	slab := make(asn.Path, 0, hops)
	ends := make([]int, 0, len(paths))
	// votes[e] counts the paths where e.a transited for e.b ([0]) and
	// where e.b transited for e.a ([1]); its key set is the edge set.
	votes := make(map[edge][2]int32)
	degree := make(map[asn.AS]int32)
	for _, p := range paths {
		start := len(slab)
		slab = p.AppendUnique(slab)
		if len(slab)-start < 2 {
			slab = slab[:start]
			continue
		}
		ends = append(ends, len(slab))
		for i := start; i+1 < len(slab); i++ {
			e := mkEdge(slab[i], slab[i+1])
			if _, seen := votes[e]; !seen {
				votes[e] = [2]int32{}
				degree[e.a]++
				degree[e.b]++
			}
		}
	}

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
	start := 0
	for _, end := range ends {
		u := slab[start:end]
		start = end
		// Find the top provider: the highest-degree AS.
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
	}

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
