package bgp

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// The static solver: the converged routing of one prefix as a
// whole-graph fixpoint, without the event engine. Its adjacency is a
// compiled copy of the speakers' session tables (Speaker.sessions): one
// CSR list of value edges per speaker, each carrying what the decision
// and the export check read of the session's two PeerConfigs, so the
// relaxation's scan of a speaker's sessions reads one contiguous slice
// and no PeerConfig. A session whose policy the edge cannot carry (a
// callback, an import filter, added communities, a misconfigured
// NeighborAS) compiles to a slow edge that takes the session-table path
// through its index. A sender's per-prefix prepends leave the edge
// fast: the solver lists such edges and sets each one's run for the
// prefix at the start of every Solve.
//
// The compiled list is keyed on the network's generation (Network.gen),
// which every change the solver reads moves: AddSpeaker, Connect, every
// setter that writes a PeerConfig or a speaker's import filter
// (savePeer, SetImportDeny), Rewind and RestoreNetwork. A Solve on a
// solver compiled at another generation compiles again first. Writes
// made through Speaker.Peer's pointer move nothing, and a solver
// compiled before one does not see it; Speaker.Collector is set before
// the speaker's first Connect.

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
// route from a neighbor takes the neighbor's export cell (the
// neighbor's AS, 1 + its prepends, then the neighbor's head cell):
// the last one the neighbor exported when its run and tail match, else
// a fresh one, so the receivers of one sender's best share one cell.
// Cells are never rewritten, so a speaker's path stays what it was
// when the speaker chose it even after the neighbor moves on — exactly
// as immutable as the copied asn.Path it replaces, which keeps every
// intermediate comparison of the relaxation, and so Rounds and a
// non-converged partial result, what they were with copied paths.
type pathCell struct {
	as   asn.AS
	n    uint32
	next uint32
}

// staticNode is one speaker's current best in value form: what the
// decision process and the export policy read, with the path as a
// cell index. has is false for a speaker without a route; scoped is
// set for a learned route carrying NoExport or NoAdvertise, which no
// session re-advertises (exportAdmits), and sits in what would
// otherwise be padding.
type staticNode struct {
	candView
	class  RouteClass
	has    bool
	scoped bool
	path   uint32
	comms  CommunitySet
	// route is the node as a *Route, built only where something opaque
	// demands one (a policy callback on a session the node is exported
	// over, or the import filter that admitted it) and dropped with the
	// node when the speaker's best changes.
	route *Route
}

// ownNode is an origination: own routes carry LocalPrefOwn, the empty
// path and no neighbor.
var ownNode = staticNode{candView: candView{lp: LocalPrefOwn, origin: OriginIGP, fromAS: asn.None}, class: ClassOwn, has: true}

// staticEdge is one session in compiled form, as its receiving speaker
// sees it: what the sender (nb) exports over it and what the receiver's
// import assigns. Collector neighbors, which never re-export, have no
// edge.
type staticEdge struct {
	nb     RouterID
	nbAS   asn.AS   // the sender's AS: the run its announcement adds
	fromAS asn.AS   // the receiver's PeerConfig.NeighborAS
	run    int32    // 1 + the sender's ExportPrepend
	lp     uint32   // the receiver's effective import localpref
	med    uint32   // the sender's ExportMED
	igp    uint32   // the receiver's IGPCost
	slow   uint32   // on a slow edge, its index in StaticSolver.slow
	allow  ClassSet // the sender's ExportAllow; empty from the receiver's own AS
	class  RouteClass
	flags  uint8
}

// edgeSlow marks an edge whose policy the fast path cannot carry.
const edgeSlow uint8 = 1

// slowEdge is a slow edge's session and its import-filter memo: the
// imported route (nil: denied) for the neighbor best at path cell cell
// in solve gen. Within one solve a cell is made for one sender and
// shared only by receivers adopting that sender's best over the same
// run and tail, so a neighbor's cell names its best: the sender, the
// one session it came over, and by the same argument the sender's
// best. An origination's empty path (cell 0) is constant for the solve.
type slowEdge struct {
	sess  int
	gen   uint64
	cell  uint32
	route *Route
}

// asFilterBit is a's bit in a path's one-word AS filter: a path whose
// filter lacks a's bit does not contain a.
func asFilterBit(a asn.AS) uint64 { return 1 << (uint32(a) * 0x9E3779B1 >> 26) }

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

// StaticSolver is the fixpoint solver's reusable working memory and its
// compiled adjacency. A solve on a warmed solver allocates only its
// StaticResult; callers that solve many prefixes
// (core.ComputeOriginViews) keep one solver per goroutine. A solver is
// not safe for concurrent use, and each Solve invalidates the result
// of the one before. Solvers of one network may solve side by side:
// compiling reads the network and writes only the solver.
type StaticSolver struct {
	net    *Network
	prefix netutil.Prefix
	gen    uint64

	// The compiled adjacency, current while netGen equals net.gen:
	// speakers by RouterID (RouterIDs are dense, the topology builder
	// assigns them sequentially, so a slice beats the network's map),
	// and speaker id's edges at edges[first[id]:first[id+1]], in
	// session order.
	netGen   uint64
	speakers []*Speaker
	first    []uint32
	edges    []staticEdge
	slow     []slowEdge
	// prepended are the fast edges whose sender prepends per prefix,
	// each with the sender's PeerConfig: Solve sets their runs.
	prepended []prependedEdge
	// taps are the export taps a caller set, tapped them resolved at
	// netGen (SetExportTaps).
	taps   []ExportTap
	tapped []tapEdge

	nodes []staticNode // by RouterID
	// asf is each node's path AS filter by RouterID: the OR of
	// asFilterBit over the ASes of its path. Read only where the node
	// has a route.
	asf   []uint64
	cells []pathCell // cells[0] is unused: index 0 is the empty path
	// exported is each node's last export cell by RouterID (0: none
	// this solve).
	exported []uint32
	// held maps the cells a PathTree holds to its runs (AddTapLeaf):
	// cell c is run held[c].run of the tree if held[c].stamp is stamp.
	// A new stamp, taken per solve and tree, forgets them all.
	held    []heldCell
	stamp   uint64
	stampAt uint64 // gen when stamp was taken
	treeFor *asn.PathTree
	// own holds the solve's originating speakers. cur is the round's
	// batch and next the one it queues; both are empty between solves.
	own, cur, next idSet
}

// prependedEdge is a fast edge whose run depends on the prefix.
type prependedEdge struct {
	edge uint32
	pc   *PeerConfig // the sender's toward the receiver
}

// heldCell is a cell's run in the tree taken at stamp.
type heldCell struct {
	stamp uint64
	run   uint32
}

// NewStaticSolver returns a solver for n. It follows every change to
// n's speakers, sessions and policy made through Network's methods: a
// Solve after one recompiles the adjacency (see the generation contract
// above). Compiling reads every session once, about what one solve's
// scan reads, so keep a solver for many solves.
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
	// A network with a speaker has gen >= 1 (AddSpeaker moves it), so
	// a fresh solver's zero netGen is never current.
	if sv.netGen != sv.net.gen {
		sv.compile()
	}
	for _, pe := range sv.prepended {
		sv.edges[pe.edge].run = int32(exportRun(p, pe.pc))
	}
	clear(sv.nodes)
	clear(sv.exported)
	clear(sv.own)
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
				// id's edges name its neighbors but collectors, which
				// re-export nothing and are never relaxed.
				edges := sv.edges[sv.first[id]:sv.first[id+1]]
				for i := range edges {
					if next.add(edges[i].nb) {
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

// compile builds the adjacency from the network's session tables and
// sizes the per-node memory to the network's RouterIDs.
func (sv *StaticSolver) compile() {
	n := sv.net
	size := int(n.order[len(n.order)-1]) + 1 // order is ascending
	if len(sv.nodes) != size {
		words := (size + 63) / 64
		sv.speakers = make([]*Speaker, size)
		sv.first = make([]uint32, size+1)
		sv.nodes = make([]staticNode, size)
		sv.asf = make([]uint64, size)
		sv.exported = make([]uint32, size)
		sv.own, sv.cur, sv.next = make(idSet, words), make(idSet, words), make(idSet, words)
	}
	sv.edges, sv.slow, sv.prepended = sv.edges[:0], sv.slow[:0], sv.prepended[:0]
	unset := 0 // the lowest RouterID whose first is not yet written
	for _, id := range n.order {
		for ; unset <= int(id); unset++ {
			sv.first[unset] = uint32(len(sv.edges))
		}
		s := n.speakers[id]
		sv.speakers[id] = s
		for i := range s.sessions {
			if e := &s.sessions[i]; !e.nb.Collector {
				sv.edges = append(sv.edges, sv.compileEdge(s, i))
			}
		}
	}
	for ; unset <= size; unset++ {
		sv.first[unset] = uint32(len(sv.edges))
	}
	sv.resolveTaps()
	sv.netGen = n.gen
}

// compileEdge is s's session i as an edge.
func (sv *StaticSolver) compileEdge(s *Speaker, i int) staticEdge {
	e := &s.sessions[i]
	pc, pcAtNb := e.pc, e.pcAtNb
	ed := staticEdge{
		nb:     e.nbID,
		nbAS:   e.nb.AS,
		fromAS: pc.NeighborAS,
		run:    int32(1 + pcAtNb.ExportPrepend),
		lp:     pc.localPref(),
		med:    pcAtNb.ExportMED,
		igp:    pc.IGPCost,
		allow:  pcAtNb.ExportAllow,
		class:  pc.ClassifyAs,
	}
	if e.nb.AS == s.AS {
		ed.allow = 0 // loop detection drops whatever a same-AS neighbor sends
	}
	switch {
	case pcAtNb.hasExportCallback() || pc.ImportDeny != nil || s.importDeny != nil ||
		pcAtNb.ExportAddCommunities.Len() > 0 || pcAtNb.NeighborAS != s.AS:
		ed.flags |= edgeSlow
		ed.slow = uint32(len(sv.slow))
		sv.slow = append(sv.slow, slowEdge{sess: i})
	case len(pcAtNb.PrefixPrepend) > 0:
		// compile appends the edge next.
		sv.prepended = append(sv.prepended, prependedEdge{edge: uint32(len(sv.edges)), pc: pcAtNb})
	}
	return ed
}

// relax re-runs speaker id's decision over its origination and its
// neighbors' current bests, and reports whether its best changed.
func (sv *StaticSolver) relax(id RouterID) bool {
	s := sv.speakers[id]
	var best staticNode
	if sv.own.has(id) {
		best = ownNode // carries LocalPrefOwn, so it wins the scan below
	}
	var bestEdge *staticEdge
	selfBit := asFilterBit(s.AS)

	edges := sv.edges[sv.first[id]:sv.first[id+1]]
	for i := range edges {
		e := &edges[i]
		nb := &sv.nodes[e.nb]
		if !nb.has {
			continue
		}
		var (
			cv   candView
			cand *Route
		)
		if e.flags&edgeSlow != 0 {
			var ok bool
			if cv, cand, ok = sv.slowCandidate(s, e, nb); !ok {
				continue
			}
		} else {
			// A lower localpref loses before anything else is read.
			if best.has && e.lp < best.lp {
				continue
			}
			// The export check on the node's attributes, then loop
			// detection: the sender walks its path for the AS it
			// addresses, which on a fast edge is s's own, and the
			// filter skips the walk for most paths.
			if nb.scoped || !e.allow.Has(nb.class) {
				continue
			}
			if sv.asf[e.nb]&selfBit != 0 && sv.pathContains(nb.path, s.AS) {
				continue
			}
			cv = candView{
				plen:   nb.plen + int(e.run),
				lp:     e.lp,
				med:    e.med,
				igp:    e.igp,
				fromAS: e.fromAS,
				from:   e.nb,
				origin: nb.origin,
				ebgp:   true,
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
	var (
		asf   uint64
		fresh bool // best.path is a cell appended for this relaxation
	)
	if bestEdge != nil {
		// Complete the winner: the rest of what the import assigns, and
		// its path as one cell on the neighbor's.
		nb := &sv.nodes[bestEdge.nb]
		best.class = bestEdge.class
		best.comms = nb.comms
		if bestEdge.flags&edgeSlow != 0 {
			best.comms = exportCommunities(nb.comms, s.sessions[sv.slow[bestEdge.slow].sess].pcAtNb)
		}
		best.scoped = best.from != 0 && scopedToReceiver(best.comms)
		best.path, fresh = sv.exportCell(bestEdge.nb, pathCell{as: bestEdge.nbAS, n: uint32(best.plen - nb.plen), next: nb.path})
		asf = sv.asf[bestEdge.nb] | asFilterBit(bestEdge.nbAS)
	}
	if sv.sameRoute(&sv.nodes[id], &best) {
		if fresh {
			sv.cells = sv.cells[:len(sv.cells)-1]
		}
		return false
	}
	if fresh {
		sv.exported[bestEdge.nb] = best.path
	}
	sv.nodes[id], sv.asf[id] = best, asf
	return true
}

// exportCell returns speaker from's last export cell if it is c, or
// appends c and returns it fresh; the caller records a fresh cell it
// keeps as from's last (exported).
func (sv *StaticSolver) exportCell(from RouterID, c pathCell) (cell uint32, fresh bool) {
	if last := sv.exported[from]; last != 0 && sv.cells[last] == c {
		return last, false
	}
	sv.cells = append(sv.cells, c)
	return uint32(len(sv.cells) - 1), true
}

// slowCandidate is a slow edge's candidate by the session-table path:
// the sender's PeerConfig checked in full, callbacks shown *Routes, and
// import filters shown the imported route, memoised per neighbor best.
// ok is false if the session does not carry nb's best to s.
func (sv *StaticSolver) slowCandidate(s *Speaker, e *staticEdge, nb *staticNode) (cv candView, cand *Route, ok bool) {
	se := &sv.slow[e.slow]
	ss := &s.sessions[se.sess]
	// A policy callback is the one thing that needs nb's best as a
	// *Route; nb's other callback sessions then read the same one.
	if ss.pcAtNb.hasExportCallback() && nb.route == nil {
		nb.route = sv.routeOf(nb)
	}
	if !sv.exportAdmits(nb, ss.pcAtNb) {
		return cv, nil, false
	}
	// Receiver-side loop detection. The sender side has walked the
	// path for the AS it addresses, which is s's own AS on every
	// session but a misconfigured one.
	if ss.nb.AS == s.AS || (ss.pcAtNb.NeighborAS != s.AS && sv.pathContains(nb.path, s.AS)) {
		return cv, nil, false
	}
	cv = candView{
		plen:   nb.plen + exportRun(sv.prefix, ss.pcAtNb),
		lp:     e.lp,
		med:    e.med,
		igp:    e.igp,
		fromAS: e.fromAS,
		from:   e.nb,
		origin: nb.origin,
		ebgp:   true,
	}
	// ImportDeny is shown the imported route; only build one when a
	// filter exists (rare: default-only importers, ROV).
	if ss.pc.ImportDeny != nil || s.importDeny != nil {
		if se.gen != sv.gen || se.cell != nb.path {
			ann := sv.announcement(ss.nb, nb, ss.pcAtNb)
			se.gen, se.cell, se.route = sv.gen, nb.path, staticImport(s, ss.pc, &ann)
		}
		if cand = se.route; cand == nil {
			return cv, nil, false
		}
	}
	return cv, cand, true
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

// exportAdmits is the package's exportAdmits on a node: the scoping
// bit, the class check and a walk of the cells, or, on a session that
// carries a policy callback, the Route form unchanged.
func (sv *StaticSolver) exportAdmits(nd *staticNode, pc *PeerConfig) bool {
	if pc.hasExportCallback() {
		return exportAdmits(sv.routeOf(nd), pc)
	}
	return !nd.scoped && pc.ExportAllow.Has(nd.class) && !sv.pathContains(nd.path, pc.NeighborAS)
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
	return res.appendExport(dst, from, s.AS, s.Peer(to))
}

// ExportTap names one session whose exports a caller reads off many
// solves: what speaker From announces to speaker To.
type ExportTap struct {
	From, To RouterID
}

// tapEdge is an ExportTap resolved against the network: the sender's
// AS and its policy toward the receiver, pc nil where the sender
// exports nothing over the pair (no such speaker, a collector, no
// session).
type tapEdge struct {
	from RouterID
	as   asn.AS
	pc   *PeerConfig
}

// SetExportTaps sets the sessions AddTapLeaf reads. The solver
// resolves them against the network now and again whenever it
// recompiles its adjacency (see the generation contract above), so a
// read looks up no speaker and searches no session table, and a tap
// whose session a Connect or a setter adds or changes reads the new
// one. Collectors read their peers' exports this way, the same pairs
// for every origin (core.ComputeOriginViews).
func (sv *StaticSolver) SetExportTaps(taps []ExportTap) {
	sv.taps = taps
	sv.resolveTaps()
}

func (sv *StaticSolver) resolveTaps() {
	sv.tapped = sv.tapped[:0]
	for _, t := range sv.taps {
		tp := tapEdge{from: t.From}
		if s := sv.net.speakers[t.From]; s != nil && !s.Collector {
			tp.as, tp.pc = s.AS, s.Peer(t.To)
		}
		sv.tapped = append(sv.tapped, tp)
	}
}

// AddTapLeaf is Network.AppendExportPath over the solver's export tap
// i (SetExportTaps) into a tree: it adds to t, as its next leaf, the
// path of what the tap's sender announces to its receiver under r and
// reports true, or adds nothing and reports false if policy
// withholds the prefix. The path is the sender's export cell on its
// chain of cells, which the receivers of the solve share: t gains only
// the cells it does not yet hold. The first leaf a result adds to an
// empty tree starts the tree's map of held cells; t must hold only
// leaves added from r since. AddTapLeaf writes the solver's memory, so
// it runs on the goroutine that solved, not beside other reads of r.
func (r *StaticResult) AddTapLeaf(t *asn.PathTree, i int) bool {
	tp := &r.solver.tapped[i]
	best, run, ok := r.export(tp.from, tp.pc)
	if !ok {
		return false
	}
	sv := r.solver
	if sv.treeFor != t || sv.stampAt != sv.gen || t.Len() == 0 {
		sv.treeFor, sv.stampAt = t, sv.gen
		sv.stamp++
	}
	cell, fresh := sv.exportCell(tp.from, pathCell{as: tp.as, n: uint32(run), next: best.path})
	if fresh {
		sv.exported[tp.from] = cell
	}
	t.AddLeaf(sv.treeRun(t, cell))
	return true
}

// treeRun returns cell c's run in the tree being filled, adding it and
// the cells of its tail the tree does not hold yet.
func (sv *StaticSolver) treeRun(t *asn.PathTree, c uint32) int {
	if c == 0 {
		return asn.NoRun
	}
	if int(c) >= len(sv.held) {
		sv.held = append(sv.held, make([]heldCell, len(sv.cells)-len(sv.held))...)
	}
	if h := sv.held[c]; h.stamp == sv.stamp {
		return int(h.run)
	}
	cell := sv.cells[c]
	run := t.AddRun(cell.as, int(cell.n), sv.treeRun(t, cell.next))
	sv.held[c] = heldCell{stamp: sv.stamp, run: uint32(run)}
	return run
}

// appendExport appends the path speaker from (of AS as) announces over
// the session pc describes, nil for none.
func (r *StaticResult) appendExport(dst asn.Path, from RouterID, as asn.AS, pc *PeerConfig) (asn.Path, bool) {
	best, run, ok := r.export(from, pc)
	if !ok {
		return dst, false
	}
	return r.solver.appendPath(dst, as, run, best), true
}

// export returns speaker from's best and the copies of its AS it puts
// in front of it over the session pc describes (nil for none), or false
// if the session carries nothing.
func (r *StaticResult) export(from RouterID, pc *PeerConfig) (best *staticNode, run int, ok bool) {
	if pc == nil {
		return nil, 0, false
	}
	best = r.node(from)
	sv := r.solver
	if best == nil || !sv.exportAdmits(best, pc) {
		return nil, 0, false
	}
	return best, exportRun(sv.prefix, pc), true
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
	// Well-known scoping communities: routes *learned* with NoExport
	// or NoAdvertise are never re-advertised (RFC 1997); the
	// originating speaker itself may still announce them. A solver node
	// holds the first test as its scoped bit.
	if src.From != 0 && scopedToReceiver(src.Communities) || !pc.ExportAllow.Has(src.Class) {
		return false
	}
	if pc.ExportFilter != nil && !pc.ExportFilter(src) {
		return false
	}
	// Sender-side loop avoidance: pointless to announce a path already
	// containing the neighbor's AS.
	return !src.Path.Contains(pc.NeighborAS)
}

// scopedToReceiver reports whether comms holds a well-known scoping
// community (NoExport, NoAdvertise).
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
