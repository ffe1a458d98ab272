package bgp

import (
	"fmt"
	"sort"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// StaticOrigin describes a prefix origination for the fixpoint solver.
type StaticOrigin struct {
	Speaker RouterID
}

// solverEdge caches one directed adjacency for the solver: everything
// needed to evaluate neighbor nb's export toward a speaker without
// map lookups.
type solverEdge struct {
	nbID   RouterID
	nb     *Speaker
	pcAtNb *PeerConfig // nb's policy toward the speaker (export side)
	pcAtS  *PeerConfig // the speaker's policy toward nb (import side)
}

// solverIndex is the RouterID-indexed adjacency cache. RouterIDs are
// dense (the topology builder assigns them sequentially), so slices
// beat maps by a wide margin in the solver's hot loop.
type solverIndex struct {
	maxID    RouterID
	speakers []*Speaker     // by RouterID
	adj      [][]solverEdge // by RouterID
}

// solverIdx returns the cached index, rebuilding it after topology
// changes (AddSpeaker/Connect/RestoreNetwork clear it). Concurrent
// callers that all find it cleared each build one; the builds read the
// same frozen topology, so they are identical and any of them may win
// the store.
func (n *Network) solverIdx() *solverIndex {
	if idx := n.solver.Load(); idx != nil {
		return idx
	}
	var maxID RouterID
	for id := range n.speakers {
		if id > maxID {
			maxID = id
		}
	}
	idx := &solverIndex{
		maxID:    maxID,
		speakers: make([]*Speaker, maxID+1),
		adj:      make([][]solverEdge, maxID+1),
	}
	for id, s := range n.speakers {
		idx.speakers[id] = s
	}
	for id, s := range n.speakers {
		edges := make([]solverEdge, 0, len(s.peerOrder))
		for _, nbID := range s.peerOrder {
			nb := n.speakers[nbID]
			if nb == nil || nb.Collector {
				continue
			}
			pcAtNb := nb.peers[id]
			pcAtS := s.peers[nbID]
			if pcAtNb == nil || pcAtS == nil {
				continue
			}
			edges = append(edges, solverEdge{nbID: nbID, nb: nb, pcAtNb: pcAtNb, pcAtS: pcAtS})
		}
		idx.adj[id] = edges
	}
	n.solver.Store(idx)
	return idx
}

// StaticResult holds the converged best route per speaker for one
// solved prefix. Speakers with no route are absent from Best.
type StaticResult struct {
	Prefix netutil.Prefix
	Best   map[RouterID]*Route
	// Converged is false if the iteration cap was hit (a policy
	// dispute); the partial result is still returned.
	Converged bool
	// Rounds is the number of relaxation rounds performed.
	Rounds int
}

// maxStaticRounds caps relaxation rounds. Gao-Rexford-compliant
// policies converge in O(network diameter) rounds; the cap triggers
// only for genuinely unstable (dispute-wheel) configurations.
const maxStaticRounds = 200

// SolveStatic computes the converged routing for prefix p originated
// at the given speakers, without touching the event engine or any
// speaker RIB state. It reuses the same per-session import/export
// policies (localpref assignment, export classes, prepending,
// filters). Route age is not modelled (all LearnedAt zero), so age
// ties fall through to router ID — appropriate for the long-stable
// member-prefix announcements behind Table 4 and Figure 5.
//
// ExportBestOf (VRF-split) sessions are approximated by filtering the
// solver's per-speaker best; the reproduction attaches VRF splits only
// to collector sessions for the measurement prefix, which the event
// engine handles with full fidelity.
func (n *Network) SolveStatic(p netutil.Prefix, origins []StaticOrigin) *StaticResult {
	res := &StaticResult{Prefix: p}

	own := make(map[RouterID]*Route, len(origins))
	for _, o := range origins {
		if n.speakers[o.Speaker] == nil {
			panic(fmt.Sprintf("bgp: SolveStatic: unknown speaker %d", o.Speaker))
		}
		own[o.Speaker] = &Route{
			Prefix:    p,
			Origin:    OriginIGP,
			LocalPref: LocalPrefOwn,
			Class:     ClassOwn,
			FromAS:    asn.None,
		}
	}

	idx := n.solverIdx()
	cur := make([]*Route, idx.maxID+1)
	ownArr := make([]*Route, idx.maxID+1)
	for id, r := range own {
		ownArr[id] = r
	}

	// Worklist relaxation: recompute only speakers whose inputs may
	// have changed, in sorted order for determinism. The hot loop
	// compares candidates on their decisive attributes and only
	// materializes the winner's Route (one path allocation per
	// loc-RIB change), which makes whole-ecosystem sweeps cheap.
	dirty := make([]bool, idx.maxID+1)
	batch := make([]RouterID, 0, len(own))
	for id := range own {
		dirty[id] = true
		batch = append(batch, id)
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i] < batch[j] })
	var next []RouterID
	for round := 1; round <= maxStaticRounds; round++ {
		if len(batch) == 0 {
			res.Converged = true
			break
		}
		next = next[:0]
		for _, id := range batch {
			dirty[id] = false
		}
		for _, id := range batch {
			s := idx.speakers[id]
			if s == nil {
				continue
			}
			best := solveCandidate(idx, s, ownArr[id], cur)
			if routesEqual(cur[id], best) {
				continue
			}
			cur[id] = best
			for _, e := range idx.adj[id] {
				if !dirty[e.nbID] {
					dirty[e.nbID] = true
					next = append(next, e.nbID)
				}
			}
		}
		batch, next = next, batch
		sort.Slice(batch, func(i, j int) bool { return batch[i] < batch[j] })
		res.Rounds = round
	}
	bestMap := make(map[RouterID]*Route, 256)
	for id, r := range cur {
		if r != nil {
			bestMap[RouterID(id)] = r
		}
	}
	res.Best = bestMap
	return res
}

// candView is the solver's allocation-free candidate descriptor: the
// decisive attributes of a route that may not have been materialized
// yet. The effective path length is computed up front (neighbor path
// plus the neighbor's prepends), so a candidate never needs a Route —
// and Route never needs a smuggled length-override field — until it
// has actually won the scan.
type candView struct {
	lp     uint32
	plen   int
	med    uint32
	igp    uint32
	fromAS asn.AS
	from   RouterID
	origin Origin
}

// viewOf describes an already-materialized route (an origination or an
// import-filtered candidate) in candView form.
func viewOf(r *Route) candView {
	return candView{
		lp:     r.LocalPref,
		plen:   r.Path.Len(),
		med:    r.MED,
		igp:    r.IGPCost,
		fromAS: r.FromAS,
		from:   r.From,
		origin: r.Origin,
	}
}

// solveCandidate picks the speaker's best route from its origination
// and its neighbors' current bests, allocating only for the winner.
func solveCandidate(idx *solverIndex, s *Speaker, ownRoute *Route, cur []*Route) *Route {
	best := ownRoute // own routes carry LocalPrefOwn and always win
	haveBest := best != nil
	var bestView candView
	if haveBest {
		bestView = viewOf(best)
	}
	var bestEdge *solverEdge
	var bestSrc *Route

	for i := range idx.adj[s.ID] {
		e := &idx.adj[s.ID][i]
		nbBest := cur[e.nbID]
		if nbBest == nil {
			continue
		}
		// Sender-side checks without materializing the announcement.
		if !exportAdmits(nbBest, e.pcAtNb) {
			continue
		}
		if nbBest.Path.Contains(s.AS) || e.nb.AS == s.AS {
			continue
		}
		// Candidate shape if imported.
		cv := candView{
			lp:     e.pcAtS.localPref(),
			plen:   nbBest.Path.Len() + 1 + e.pcAtNb.effectivePrepend(nbBest.Prefix),
			med:    e.pcAtNb.ExportMED,
			igp:    e.pcAtS.IGPCost,
			fromAS: e.pcAtS.NeighborAS,
			from:   e.nbID,
			origin: nbBest.Origin,
		}
		// ImportDeny needs a materialized route; only build one when a
		// filter exists (rare: default-only importers, ROV).
		var cand *Route
		if e.pcAtS.ImportDeny != nil || s.importDeny != nil {
			ann := announcement(e.nb, nbBest, e.pcAtNb)
			cand = staticImport(s, e.pcAtS, &ann)
			if cand == nil {
				continue
			}
		}
		// Compare against the current best on the decisive attributes.
		if haveBest && compareShape(bestView, cv) <= 0 {
			continue // existing best wins or ties (earlier neighbor)
		}
		haveBest, bestView = true, cv
		if cand == nil {
			// Track the winner by edge; the real route is materialized
			// once, after the scan.
			best, bestEdge, bestSrc = nil, e, nbBest
		} else {
			best, bestEdge, bestSrc = cand, nil, nil
		}
	}
	if bestEdge != nil {
		// The announcement lives on the stack; the imported route is
		// the only Route the winner costs.
		ann := announcement(bestEdge.nb, bestSrc, bestEdge.pcAtNb)
		best = staticImport(s, bestEdge.pcAtS, &ann)
	}
	return best
}

// compareShape compares the current best against a candidate, both
// described by their decisive attributes, mirroring Compare's rule
// order for the attributes the static solver exercises (age is always
// zero). It returns >0 when the candidate wins.
func compareShape(best, cand candView) int {
	switch {
	case cand.lp != best.lp:
		if cand.lp > best.lp {
			return 1
		}
		return -1
	case cand.plen != best.plen:
		if cand.plen < best.plen {
			return 1
		}
		return -1
	case cand.origin != best.origin:
		if cand.origin < best.origin {
			return 1
		}
		return -1
	case cand.fromAS == best.fromAS && cand.med != best.med:
		if cand.med < best.med {
			return 1
		}
		return -1
	case best.from == 0:
		return 1 // eBGP beats a locally sourced route at equal attrs
	case cand.igp != best.igp:
		if cand.igp < best.igp {
			return 1
		}
		return -1
	case cand.from != best.from:
		if cand.from < best.from {
			return 1
		}
		return -1
	}
	return 0
}

// ExportView computes the announcement speaker `from` would send to
// speaker `to` under the converged static result, or nil if policy
// withholds the prefix. Collectors use this to reconstruct the routes
// their peers export (Tables 3-4, Figure 5).
func (n *Network) ExportView(res *StaticResult, from, to RouterID) *Route {
	s := n.speakers[from]
	if s == nil || s.Collector {
		return nil
	}
	best := res.Best[from]
	if best == nil {
		return nil
	}
	pcTo := s.peers[to]
	if pcTo == nil {
		return nil
	}
	return staticExport(s, best, pcTo)
}

// exportAdmits runs the sender-side export checks on the source route
// src toward the neighbor described by pc, without building the
// announcement. It is the export policy of both the event engine
// (Speaker.exportRoute) and the static solver.
func exportAdmits(src *Route, pc *PeerConfig) bool {
	if pc.ExportBestOf != nil && !pc.ExportBestOf(src) {
		return false
	}
	// Well-known scoping communities: routes *learned* with NoExport
	// or NoAdvertise are never re-advertised (RFC 1997); the
	// originating speaker itself may still announce them.
	if src.From != 0 && (src.Communities.Has(NoExport) || src.Communities.Has(NoAdvertise)) {
		return false
	}
	if !pc.ExportAllow.Has(src.Class) {
		return false
	}
	if pc.ExportFilter != nil && !pc.ExportFilter(src) {
		return false
	}
	// Sender-side loop avoidance: pointless to announce a path already
	// containing the neighbor's AS.
	return !src.Path.Contains(pc.NeighborAS)
}

// staticExport is the solver's export: the loc-RIB best, under the
// same policy Speaker.exportRoute ends in.
func staticExport(s *Speaker, best *Route, pcToNeighbor *PeerConfig) *Route {
	if !exportAdmits(best, pcToNeighbor) {
		return nil
	}
	ann := announcement(s, best, pcToNeighbor)
	return &ann
}

// announcement is what s sends its neighbor for src once exportAdmits
// has passed. It returns a value so that the solver's scan, which only
// reads it to build the imported route, never puts it on the heap.
func announcement(s *Speaker, src *Route, pcToNeighbor *PeerConfig) Route {
	comms := src.Communities
	if pcToNeighbor.ExportAddCommunities.Len() > 0 {
		comms = comms.With(pcToNeighbor.ExportAddCommunities.Values()...)
	}
	return Route{
		Prefix:      src.Prefix,
		Path:        src.Path.Prepend(s.AS, 1+pcToNeighbor.effectivePrepend(src.Prefix)),
		Origin:      src.Origin,
		MED:         pcToNeighbor.ExportMED,
		Communities: comms,
	}
}

// staticImport mirrors Speaker.applyImport for the solver.
func staticImport(s *Speaker, pc *PeerConfig, ann *Route) *Route {
	if pc == nil {
		return nil
	}
	if ann.Path.Contains(s.AS) {
		return nil
	}
	in := &Route{
		Prefix:      ann.Prefix,
		Path:        ann.Path,
		Origin:      ann.Origin,
		MED:         ann.MED,
		LocalPref:   pc.localPref(),
		Class:       pc.ClassifyAs,
		From:        pc.Neighbor,
		FromAS:      pc.NeighborAS,
		EBGP:        true,
		IGPCost:     pc.IGPCost,
		Communities: ann.Communities,
	}
	if pc.ImportDeny != nil && pc.ImportDeny(in) {
		return nil
	}
	if s.importDeny != nil && s.importDeny(in) {
		return nil
	}
	return in
}
