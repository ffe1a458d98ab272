package bgp

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// The static solver: the converged routing of one prefix as a
// whole-graph fixpoint, without the event engine. Its adjacency is each
// speaker's one session table (Speaker.sessions), the table the engine
// exports through and the row table takes its slots from; the solver
// walks it by value and adds only a RouterID-indexed slice of speakers,
// rebuilt when the network has grown.

// StaticOrigin describes a prefix origination for the fixpoint solver.
type StaticOrigin struct {
	Speaker RouterID
}

// StaticResult is the converged routing of one solved prefix. It
// borrows the StaticSolver that produced it: Best and
// Network.AppendExportPath read the solver's working memory, so a
// result is good until that solver's next Solve and panics if read
// after it. Reads change nothing and may run concurrently.
type StaticResult struct {
	Prefix netutil.Prefix
	// Converged is false if the iteration cap was hit (a policy
	// dispute); the partial result is still returned.
	Converged bool
	// Rounds is the number of relaxation rounds performed.
	Rounds int

	solver *StaticSolver
	gen    uint64 // solver.gen when this result was produced
}

// Best returns speaker id's converged route, built on demand from the
// solver's nodes, or nil if the speaker holds no route.
func (r *StaticResult) Best(id RouterID) *Route {
	nd := r.node(id)
	if nd == nil {
		return nil
	}
	return r.solver.routeOf(nd)
}

func (r *StaticResult) node(id RouterID) *staticNode {
	sv := r.solver
	if r.gen != sv.gen {
		panic("bgp: StaticResult read after its StaticSolver's next Solve")
	}
	if int(id) >= len(sv.nodes) || !sv.nodes[id].has {
		return nil
	}
	return &sv.nodes[id]
}

// maxStaticRounds caps relaxation rounds. Gao-Rexford-compliant
// policies converge in O(network diameter) rounds; the cap triggers
// only for genuinely unstable (dispute-wheel) configurations.
const maxStaticRounds = 200

// pathCell is one run of a persistent AS path: n copies of as followed
// by the path at cell next (0 is the empty path). A speaker adopting a
// route from a neighbor conses one cell (the neighbor's AS, 1 + its
// prepends) onto the neighbor's head cell. Cells are never rewritten,
// so a speaker's path stays what it was when the speaker chose it even
// after the neighbor moves on — exactly as immutable as the copied
// asn.Path it replaces, which keeps every intermediate comparison of
// the relaxation, and so Rounds and a non-converged partial result,
// what they were with copied paths.
type pathCell struct {
	as   asn.AS
	n    uint32
	next uint32
}

// staticNode is one speaker's current best in value form: what the
// decision process and the export policy read, with the path as a
// cell index. has is false for a speaker without a route.
type staticNode struct {
	candView
	class RouteClass
	has   bool
	path  uint32
	comms CommunitySet
	// route is the node as a *Route, built only where something opaque
	// demands one (a policy callback on a session the node is exported
	// over, or the import filter that admitted it) and dropped with the
	// node when the speaker's best changes.
	route *Route
}

// ownNode is an origination: own routes carry LocalPrefOwn, the empty
// path and no neighbor.
var ownNode = staticNode{candView: candView{lp: LocalPrefOwn, origin: OriginIGP, fromAS: asn.None}, class: ClassOwn, has: true}

// idSet is a set of RouterIDs, one bit per ID of the dense ID space.
type idSet []uint64

// add inserts id and reports whether it was absent.
func (s idSet) add(id RouterID) bool {
	w, b := id>>6, uint64(1)<<(id&63)
	if s[w]&b != 0 {
		return false
	}
	s[w] |= b
	return true
}

func (s idSet) has(id RouterID) bool { return s[id>>6]&(uint64(1)<<(id&63)) != 0 }

// StaticSolver is the fixpoint solver's reusable working memory. A
// solve on a warmed solver allocates only its StaticResult; callers
// that solve many prefixes (core.ComputeOriginViews) keep one solver
// per goroutine. A solver is not safe for concurrent use, and each
// Solve invalidates the result of the one before.
type StaticSolver struct {
	net    *Network
	prefix netutil.Prefix
	gen    uint64

	// speakers is the network's speakers by RouterID, rebuilt once the
	// network has grown past the indexed count. RouterIDs are dense (the
	// topology builder assigns them sequentially), so a slice beats the
	// network's map by a wide margin in the hot loop; the adjacency is
	// each speaker's own session table.
	speakers []*Speaker
	indexed  int

	nodes []staticNode // by RouterID
	cells []pathCell   // cells[0] is unused: index 0 is the empty path
	// own holds the solve's originating speakers. cur is the round's
	// batch and next the one it queues; both are empty between solves.
	own, cur, next idSet
}

// NewStaticSolver returns a solver for n. It follows n's topology
// changes: each Solve reads the speakers' current session tables.
func (n *Network) NewStaticSolver() *StaticSolver { return &StaticSolver{net: n} }

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
//
// SolveStatic is the one-shot form: a fresh solver per call, which the
// result keeps alive. Solve many prefixes on one NewStaticSolver.
func (n *Network) SolveStatic(p netutil.Prefix, origins []StaticOrigin) *StaticResult {
	return n.NewStaticSolver().Solve(p, origins)
}

// Solve is SolveStatic on the solver's memory. The result borrows the
// solver until its next Solve.
func (sv *StaticSolver) Solve(p netutil.Prefix, origins []StaticOrigin) *StaticResult {
	for _, o := range origins {
		if sv.net.speakers[o.Speaker] == nil {
			panic(fmt.Sprintf("bgp: SolveStatic: unknown speaker %d", o.Speaker))
		}
	}
	sv.gen++
	sv.prefix = p
	if n := sv.net; sv.indexed != len(n.order) {
		sv.speakers = make([]*Speaker, n.order[len(n.order)-1]+1) // order is ascending
		for _, id := range n.order {
			sv.speakers[id] = n.speakers[id]
		}
		sv.indexed = len(n.order)
	}
	if size := len(sv.speakers); len(sv.nodes) != size {
		words := (size + 63) / 64
		sv.nodes = make([]staticNode, size)
		sv.own, sv.cur, sv.next = make(idSet, words), make(idSet, words), make(idSet, words)
	} else {
		clear(sv.nodes)
		clear(sv.own)
	}
	sv.cells = append(sv.cells[:0], pathCell{})
	res := &StaticResult{Prefix: p, solver: sv, gen: sv.gen}

	// Worklist relaxation: recompute only speakers whose inputs may
	// have changed, each round's batch in ascending RouterID order for
	// determinism. The hot loop compares candidates on their decisive
	// attributes; a loc-RIB change costs one path cell, which makes
	// whole-ecosystem sweeps cheap.
	cur, next := sv.cur, sv.next
	queued := 0
	for _, o := range origins {
		sv.own.add(o.Speaker)
		if cur.add(o.Speaker) {
			queued++
		}
	}
	for round := 1; round <= maxStaticRounds; round++ {
		if queued == 0 {
			res.Converged = true
			break
		}
		queued = 0
		for w, word := range cur {
			if word == 0 {
				continue
			}
			cur[w] = 0
			for ; word != 0; word &= word - 1 {
				id := RouterID(w<<6 | bits.TrailingZeros64(word))
				if !sv.relax(id) {
					continue
				}
				for _, e := range sv.speakers[id].sessions {
					if !e.nb.Collector && next.add(e.nbID) {
						queued++
					}
				}
			}
		}
		cur, next = next, cur
		res.Rounds = round
	}
	// A converged solve leaves both sets empty; the round cap leaves
	// the batch it never ran.
	clear(cur)
	sv.cur, sv.next = cur, next
	return res
}

// relax re-runs speaker id's decision over its origination and its
// neighbors' current bests, and reports whether its best changed.
func (sv *StaticSolver) relax(id RouterID) bool {
	s := sv.speakers[id]
	var best staticNode
	if sv.own.has(id) {
		best = ownNode // carries LocalPrefOwn, so it wins the scan below
	}
	var bestEdge *session

	edges := s.sessions
	for i := range edges {
		e := &edges[i]
		nb := &sv.nodes[e.nbID]
		// Collectors never re-export: checked only once nb has a route
		// to offer, so a neighbor without one costs no Speaker read.
		if !nb.has || e.nb.Collector {
			continue
		}
		// Sender-side checks without building the announcement. A
		// policy callback is the one thing that needs nb's best as a
		// *Route; nb's other callback sessions then read the same one.
		if e.pcAtNb.hasExportCallback() && nb.route == nil {
			nb.route = sv.routeOf(nb)
		}
		if !sv.exportAdmits(nb, e.pcAtNb) {
			continue
		}
		// Receiver-side loop detection. The sender side has walked the
		// path for the AS it addresses, which is s's own AS on every
		// session but a misconfigured one.
		if e.nb.AS == s.AS || (e.pcAtNb.NeighborAS != s.AS && sv.pathContains(nb.path, s.AS)) {
			continue
		}
		// Candidate shape if imported.
		cv := candView{
			plen:   nb.plen + 1 + e.pcAtNb.effectivePrepend(sv.prefix),
			lp:     e.pc.localPref(),
			med:    e.pcAtNb.ExportMED,
			igp:    e.pc.IGPCost,
			fromAS: e.pc.NeighborAS,
			from:   e.nbID,
			origin: nb.origin,
			ebgp:   true,
		}
		// ImportDeny is shown the imported route; only build one when
		// a filter exists (rare: default-only importers, ROV).
		var cand *Route
		if e.pc.ImportDeny != nil || s.importDeny != nil {
			ann := sv.announcement(e.nb, nb, e.pcAtNb)
			cand = staticImport(s, e.pc, &ann)
			if cand == nil {
				continue
			}
		}
		// Compare against the current best on the decisive attributes.
		if best.has {
			if c, _ := cv.compare(&best.candView); c >= 0 {
				continue // existing best wins or ties (earlier neighbor)
			}
		}
		// The winner's class, communities and path are completed below.
		best.candView, best.has, best.route, bestEdge = cv, true, cand, e
	}
	if bestEdge != nil {
		// Complete the winner: the rest of what the import assigns, and
		// its path as one cell on the neighbor's.
		nb := &sv.nodes[bestEdge.nbID]
		best.class = bestEdge.pc.ClassifyAs
		best.comms = exportCommunities(nb.comms, bestEdge.pcAtNb)
		sv.cells = append(sv.cells, pathCell{as: bestEdge.nb.AS, n: uint32(best.plen - nb.plen), next: nb.path})
		best.path = uint32(len(sv.cells) - 1)
	}
	if sv.sameRoute(&sv.nodes[id], &best) {
		if bestEdge != nil {
			sv.cells = sv.cells[:len(sv.cells)-1]
		}
		return false
	}
	sv.nodes[id] = best
	return true
}

// sameRoute is routesEqual on nodes.
func (sv *StaticSolver) sameRoute(a, b *staticNode) bool {
	if !a.has || !b.has {
		return a.has == b.has
	}
	return a.from == b.from &&
		a.lp == b.lp &&
		a.med == b.med &&
		a.origin == b.origin &&
		a.class == b.class &&
		a.plen == b.plen &&
		sv.samePath(a.path, b.path) &&
		slices.Equal(a.comms.cs, b.comms.cs)
}

// samePath compares two cell chains run by run. A speaker never
// imports a path holding its own AS, so the AS a cell adds is never
// the first AS of the chain it extends: equal paths split into equal
// runs, and two chains that reach the same cell are equal from there.
func (sv *StaticSolver) samePath(a, b uint32) bool {
	for a != b {
		if a == 0 || b == 0 {
			return false
		}
		ca, cb := sv.cells[a], sv.cells[b]
		if ca.as != cb.as || ca.n != cb.n {
			return false
		}
		a, b = ca.next, cb.next
	}
	return true
}

// pathContains is asn.Path.Contains on a cell chain.
func (sv *StaticSolver) pathContains(path uint32, a asn.AS) bool {
	for c := path; c != 0; c = sv.cells[c].next {
		if sv.cells[c].as == a {
			return true
		}
	}
	return false
}

// expand writes out run copies of as followed by nd's path: nd's own
// path for run 0, what a neighbor of AS as announces otherwise.
func (sv *StaticSolver) expand(as asn.AS, run int, nd *staticNode) asn.Path {
	if run+nd.plen == 0 {
		return nil
	}
	return sv.appendPath(make(asn.Path, 0, run+nd.plen), as, run, nd)
}

// appendPath is expand appending to dst.
func (sv *StaticSolver) appendPath(dst asn.Path, as asn.AS, run int, nd *staticNode) asn.Path {
	dst = slices.Grow(dst, run+nd.plen)
	for i := 0; i < run; i++ {
		dst = append(dst, as)
	}
	for c := nd.path; c != 0; c = sv.cells[c].next {
		for i := uint32(0); i < sv.cells[c].n; i++ {
			dst = append(dst, sv.cells[c].as)
		}
	}
	return dst
}

// routeOf returns nd as a *Route: the one the solve already built, or
// a fresh one.
func (sv *StaticSolver) routeOf(nd *staticNode) *Route {
	if nd.route != nil {
		return nd.route
	}
	return &Route{
		Prefix:      sv.prefix,
		Path:        sv.expand(asn.None, 0, nd),
		Origin:      nd.origin,
		MED:         nd.med,
		LocalPref:   nd.lp,
		Class:       nd.class,
		From:        nd.from,
		FromAS:      nd.fromAS,
		EBGP:        nd.from != 0,
		IGPCost:     nd.igp,
		Communities: nd.comms,
	}
}

// exportAdmits is the package's exportAdmits on a node: the shared
// attribute check and a walk of the cells, or, on a session that
// carries a policy callback, the Route form unchanged.
func (sv *StaticSolver) exportAdmits(nd *staticNode, pc *PeerConfig) bool {
	if pc.hasExportCallback() {
		return exportAdmits(sv.routeOf(nd), pc)
	}
	return exportAdmitsAttrs(nd.from != 0, nd.comms, nd.class, pc) && !sv.pathContains(nd.path, pc.NeighborAS)
}

// announcement is the package's announcement from a node.
func (sv *StaticSolver) announcement(s *Speaker, nd *staticNode, pcToNeighbor *PeerConfig) Route {
	return Route{
		Prefix:      sv.prefix,
		Path:        sv.expand(s.AS, exportRun(sv.prefix, pcToNeighbor), nd),
		Origin:      nd.origin,
		MED:         pcToNeighbor.ExportMED,
		Communities: exportCommunities(nd.comms, pcToNeighbor),
	}
}

// exportRun is how many copies of its own AS a speaker puts in front
// of the path it announces for p on the session pc describes.
func exportRun(p netutil.Prefix, pc *PeerConfig) int {
	return 1 + pc.effectivePrepend(p)
}

// AppendExportPath appends to dst the AS path of the announcement
// speaker `from` would send to speaker `to` under the converged static
// result and reports true, or returns dst unchanged and false if policy
// withholds the prefix. Collectors read their peers' exports this way
// (Tables 3-4, Figure 5): a caller that wants the paths of many
// sessions reads them into one buffer and builds no Route; into a
// buffer with room, and on a session without a policy callback, it
// allocates nothing.
func (n *Network) AppendExportPath(dst asn.Path, res *StaticResult, from, to RouterID) (asn.Path, bool) {
	s := n.speakers[from]
	if s == nil || s.Collector {
		return dst, false
	}
	best := res.node(from)
	if best == nil {
		return dst, false
	}
	sv := res.solver
	pcTo := s.Peer(to)
	if pcTo == nil || !sv.exportAdmits(best, pcTo) {
		return dst, false
	}
	return sv.appendPath(dst, s.AS, exportRun(sv.prefix, pcTo), best), true
}

// hasExportCallback reports whether the session's export policy
// includes caller-supplied code, which is shown a *Route.
func (pc *PeerConfig) hasExportCallback() bool {
	return pc.ExportBestOf != nil || pc.ExportFilter != nil
}

// exportAdmits runs the sender-side export checks on the source route
// src toward the neighbor described by pc, without building the
// announcement. It is the export policy of both the event engine
// (Network.exportRoute) and the static solver, which applies the same
// checks to a node when the session carries no callback.
func exportAdmits(src *Route, pc *PeerConfig) bool {
	if pc.ExportBestOf != nil && !pc.ExportBestOf(src) {
		return false
	}
	if !exportAdmitsAttrs(src.From != 0, src.Communities, src.Class, pc) {
		return false
	}
	if pc.ExportFilter != nil && !pc.ExportFilter(src) {
		return false
	}
	// Sender-side loop avoidance: pointless to announce a path already
	// containing the neighbor's AS.
	return !src.Path.Contains(pc.NeighborAS)
}

// exportAdmitsAttrs is the callback-free, path-free core of
// exportAdmits, on the attributes a Route and a solver node share. It
// is small enough to inline into both callers.
func exportAdmitsAttrs(learned bool, comms CommunitySet, class RouteClass, pc *PeerConfig) bool {
	// Well-known scoping communities: routes *learned* with NoExport
	// or NoAdvertise are never re-advertised (RFC 1997); the
	// originating speaker itself may still announce them.
	return !(learned && scopedToReceiver(comms)) && pc.ExportAllow.Has(class)
}

// scopedToReceiver is its own function so that exportAdmitsAttrs makes
// one call, not two, and stays under the inlining budget.
func scopedToReceiver(comms CommunitySet) bool {
	return comms.Has(NoExport) || comms.Has(NoAdvertise)
}

// exportCommunities is what an announcement to the neighbor described
// by pc carries for a source route tagged comms.
func exportCommunities(comms CommunitySet, pc *PeerConfig) CommunitySet {
	if pc.ExportAddCommunities.Len() > 0 {
		return comms.With(pc.ExportAddCommunities.Values()...)
	}
	return comms
}

// announcement is what a speaker sends its neighbor for src once
// exportAdmits has passed, carrying path: src's path with the speaker's
// AS prepended (Network.exportPath). It returns a value so that a
// caller that only compares it or reads it to build the imported route
// never puts it on the heap.
func announcement(src *Route, path asn.Path, pcToNeighbor *PeerConfig) Route {
	return Route{
		Prefix:      src.Prefix,
		Path:        path,
		Origin:      src.Origin,
		MED:         pcToNeighbor.ExportMED,
		Communities: exportCommunities(src.Communities, pcToNeighbor),
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
