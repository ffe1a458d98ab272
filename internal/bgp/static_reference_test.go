package bgp

// The reference oracle: the solver as it stood before StaticSolver
// (a heap *Route and a freshly copied AS path at every speaker on
// every loc-RIB change) and the comparator it ran on, compareShape,
// kept verbatim apart from their names, and the differentials that
// hold the cell-based solver equal to it on full routes, Converged,
// Rounds and every ExportView.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// referenceEdge is one directed adjacency: everything needed to
// evaluate neighbor nb's export toward a speaker without map lookups.
type referenceEdge struct {
	nbID   RouterID
	nb     *Speaker
	pcAtNb *PeerConfig // nb's policy toward the speaker (export side)
	pcAtS  *PeerConfig // the speaker's policy toward nb (import side)
}

// referenceIndex is the RouterID-indexed adjacency the reference solves
// over, built apart from the sessions the solver walks: collectors,
// which never re-export, are left out.
type referenceIndex struct {
	maxID    RouterID
	speakers []*Speaker        // by RouterID
	adj      [][]referenceEdge // by RouterID
}

// referenceIdx builds the reference's adjacency through Peers and Peer.
func (n *Network) referenceIdx() *referenceIndex {
	var maxID RouterID
	for id := range n.speakers {
		maxID = max(maxID, id)
	}
	idx := &referenceIndex{
		maxID:    maxID,
		speakers: make([]*Speaker, maxID+1),
		adj:      make([][]referenceEdge, maxID+1),
	}
	for id, s := range n.speakers {
		idx.speakers[id] = s
		for _, nbID := range s.Peers() {
			nb := n.speakers[nbID]
			if nb.Collector {
				continue
			}
			idx.adj[id] = append(idx.adj[id], referenceEdge{nbID: nbID, nb: nb, pcAtNb: nb.Peer(id), pcAtS: s.Peer(nbID)})
		}
	}
	return idx
}

// referenceResult is the reference solver's StaticResult: the
// converged best route per speaker, absent for speakers with no route.
type referenceResult struct {
	Prefix    netutil.Prefix
	Best      map[RouterID]*Route
	Converged bool
	Rounds    int
}

// referenceSolveStatic computes the converged routing for prefix p originated
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
func (n *Network) referenceSolveStatic(p netutil.Prefix, origins []StaticOrigin) *referenceResult {
	res := &referenceResult{Prefix: p}

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

	idx := n.referenceIdx()
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

// solveCandidate picks the speaker's best route from its origination
// and its neighbors' current bests, allocating only for the winner.
func solveCandidate(idx *referenceIndex, s *Speaker, ownRoute *Route, cur []*Route) *Route {
	best := ownRoute // own routes carry LocalPrefOwn and always win
	haveBest := best != nil
	var bestView candView
	if haveBest {
		bestView = viewOf(best)
	}
	var bestEdge *referenceEdge
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
			ann := referenceAnnouncement(e.nb, nbBest, e.pcAtNb)
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
		ann := referenceAnnouncement(bestEdge.nb, bestSrc, bestEdge.pcAtNb)
		best = staticImport(s, bestEdge.pcAtS, &ann)
	}
	return best
}

// referenceExportView computes the announcement speaker `from` would send to
// speaker `to` under the converged static result, or nil if policy
// withholds the prefix. Collectors use this to reconstruct the routes
// their peers export (Tables 3-4, Figure 5).
func (n *Network) referenceExportView(res *referenceResult, from, to RouterID) *Route {
	s := n.speakers[from]
	if s == nil || s.Collector {
		return nil
	}
	best := res.Best[from]
	if best == nil {
		return nil
	}
	pcTo := s.Peer(to)
	if pcTo == nil {
		return nil
	}
	return staticExport(s, best, pcTo)
}

// staticExport is the solver's export: the loc-RIB best, under the
// same policy Network.exportRoute ends in.
func staticExport(s *Speaker, best *Route, pcToNeighbor *PeerConfig) *Route {
	if !exportAdmits(best, pcToNeighbor) {
		return nil
	}
	ann := referenceAnnouncement(s, best, pcToNeighbor)
	return &ann
}

// ExportView is the whole announcement whose path AppendExportPath
// reads: what speaker `from` would send to speaker `to` under res, or
// nil if policy withholds the prefix. diffSolverReference holds it
// equal to referenceExportView on every session.
func (n *Network) ExportView(res *StaticResult, from, to RouterID) *Route {
	if _, ok := n.AppendExportPath(nil, res, from, to); !ok {
		return nil
	}
	s := n.speakers[from]
	ann := res.solver.announcement(s, res.node(from), s.Peer(to))
	return &ann
}

// referenceAnnouncement is announcement with the path prepended afresh
// on every call, as the reference built it before the engine's one
// path per fan-out (Network.exportPath).
func referenceAnnouncement(s *Speaker, src *Route, pc *PeerConfig) Route {
	return announcement(src, src.Path.Prepend(s.AS, 1+pc.effectivePrepend(src.Prefix)), pc)
}

// diffSolverReference solves (p, origins) on sv and on the reference
// and describes the first difference: Converged, Rounds, any speaker's
// full route, or the ExportView or AppendExportPath on any session.
// The paths of every session are appended into one buffer, so a path
// that clobbered what was there before shows up too.
func diffSolverReference(n *Network, sv *StaticSolver, p netutil.Prefix, origins []StaticOrigin) error {
	want := n.referenceSolveStatic(p, origins)
	got := sv.Solve(p, origins)
	if got.Converged != want.Converged || got.Rounds != want.Rounds {
		return fmt.Errorf("converged=%v rounds=%d, reference converged=%v rounds=%d",
			got.Converged, got.Rounds, want.Converged, want.Rounds)
	}
	var buf, wantBuf asn.Path
	for _, id := range n.order {
		if g, w := got.Best(id), want.Best[id]; !reflect.DeepEqual(g, w) {
			return fmt.Errorf("speaker %d best: %+v, reference %+v", id, g, w)
		}
		for _, to := range n.speakers[id].Peers() {
			w := n.referenceExportView(want, id, to)
			if g := n.ExportView(got, id, to); !reflect.DeepEqual(g, w) {
				return fmt.Errorf("export view %d -> %d: %+v, reference %+v", id, to, g, w)
			}
			lo := len(buf)
			var ok bool
			buf, ok = n.AppendExportPath(buf, got, id, to)
			switch {
			case ok != (w != nil):
				return fmt.Errorf("export path %d -> %d: ok=%v, reference view %+v", id, to, ok, w)
			case !ok && len(buf) != lo:
				return fmt.Errorf("export path %d -> %d: withheld, but appended %v", id, to, buf[lo:])
			case ok && !buf[lo:].Equal(w.Path):
				return fmt.Errorf("export path %d -> %d: %v, reference %v", id, to, buf[lo:], w.Path)
			}
			if ok {
				wantBuf = append(wantBuf, w.Path...)
			}
		}
	}
	if !buf.Equal(wantBuf) {
		return fmt.Errorf("export paths appended end to end: %v, reference %v", buf, wantBuf)
	}
	return nil
}

// sprinklePolicy decorates a random network's sessions with everything
// the solver treats specially: policy callbacks (which are shown a
// materialised *Route), import filters per session and per speaker,
// NoExport and ordinary communities, MED, IGP cost and a per-prefix
// prepend override. Every callback is a pure function of its route.
func sprinklePolicy(rng *rand.Rand, net *Network, prepended netutil.Prefix) {
	tag := MakeCommunity(64500, 7)
	for _, id := range net.order {
		s := net.speakers[id]
		if rng.Intn(12) == 0 {
			maxLen := 3 + rng.Intn(3)
			net.SetImportDeny(id, func(r *Route) bool { return r.Path.Len() > maxLen })
		}
		for _, nb := range s.Peers() {
			pc := s.Peer(nb)
			switch rng.Intn(14) {
			case 0:
				avoid := asn.AS(1001 + rng.Intn(len(net.order)))
				pc.ExportFilter = func(r *Route) bool { return !r.Path.Contains(avoid) }
			case 1:
				pc.ExportFilter = func(r *Route) bool { return !r.Communities.Has(tag) }
			case 2:
				pc.ExportBestOf = func(r *Route) bool { return r.Class != ClassProvider || r.Path.Len() < 3 }
			case 3:
				pc.ImportDeny = func(r *Route) bool { return r.Communities.Has(tag) && r.Path.Len() > 2 }
			case 4:
				pc.ImportDeny = func(r *Route) bool { return r.MED > 40 }
			case 5:
				pc.ExportAddCommunities = NewCommunitySet(NoExport)
			case 6:
				pc.ExportAddCommunities = NewCommunitySet(tag, MakeCommunity(uint16(id), 1))
			case 7:
				pc.ExportMED = uint32(rng.Intn(80))
			case 8:
				pc.IGPCost = uint32(rng.Intn(5))
			case 9:
				pc.PrefixPrepend = map[netutil.Prefix]int{prepended: rng.Intn(4)}
			}
		}
	}
}

// disputeWheel is the classic three-AS dispute wheel around one
// origin (speaker 4): each wheel AS prefers the route via its
// clockwise neighbor (localpref 300) over the direct one (200), so the
// relaxation never settles.
func disputeWheel() *Network {
	net := NewNetwork()
	net.AddSpeaker(1, 101, "a")
	net.AddSpeaker(2, 102, "b")
	net.AddSpeaker(3, 103, "c")
	net.AddSpeaker(4, 104, "origin")
	all := NewClassSet(ClassOwn, ClassCustomer, ClassPeer, ClassProvider, ClassREPeer)
	mk := func(lp uint32) PeerConfig {
		return PeerConfig{ClassifyAs: ClassPeer, ImportLocalPref: lp, ExportAllow: all}
	}
	net.Connect(1, 2, mk(300), mk(100)) // 1 prefers via 2; 2 dislikes via 1
	net.Connect(2, 3, mk(300), mk(100))
	net.Connect(3, 1, mk(300), mk(100))
	net.Connect(4, 1, mk(100), mk(200))
	net.Connect(4, 2, mk(100), mk(200))
	net.Connect(4, 3, mk(100), mk(200))
	return net
}

// TestSolverMatchesReferenceOnRandomTopologies holds the cell-based
// solver equal to the reference on random networks sprinkled with
// callbacks, import filters, communities, MED and IGP cost, with one
// and two origins. Each network's solves share one solver, so memory a
// solve failed to reset shows up in the next; the dispute wheel rides
// along so the non-converged partial result is compared too.
func TestSolverMatchesReferenceOnRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(22)) // #nosec test randomness
	prefixes := []netutil.Prefix{
		netutil.MustParsePrefix("203.0.113.0/24"),
		netutil.MustParsePrefix("198.51.100.0/24"),
	}
	for trial := 0; trial < 200; trial++ {
		n := 6 + rng.Intn(35)
		net := randomGaoRexfordNetwork(rng, n)
		sprinklePolicy(rng, net, prefixes[1])
		sv := net.NewStaticSolver()
		for k := 0; k < 4; k++ {
			origins := []StaticOrigin{{Speaker: RouterID(1 + rng.Intn(n))}}
			if k == 3 {
				origins = append(origins, StaticOrigin{Speaker: RouterID(1 + rng.Intn(n))})
			}
			if err := diffSolverReference(net, sv, prefixes[k%2], origins); err != nil {
				t.Fatalf("trial %d solve %d (origins %v): %v", trial, k, origins, err)
			}
		}
	}

	wheel := disputeWheel()
	sv := wheel.NewStaticSolver()
	for k := 0; k < 2; k++ {
		if err := diffSolverReference(wheel, sv, prefixes[0], []StaticOrigin{{Speaker: 4}}); err != nil {
			t.Fatalf("dispute wheel, solve %d: %v", k, err)
		}
	}
}

// TestSolverAfterTopologyChangeMatchesReference holds NewStaticSolver to
// its promise to follow every change: one solver solves, the network
// gains speakers (one past a gap in the RouterIDs, one a collector) and
// sessions (to the new speakers and between old ones), and the same
// solver solves after the first speaker, after the sessions and after
// the collector; then it solves after each policy setter, after
// a journal Rewind and after a RestoreNetwork. Each solve must equal
// both a fresh solver's and the reference's. The solver's export taps,
// set once before the first solve over every ordered pair of the
// speakers it will ever have, must read what AppendExportPath reads
// at every stage: a tap whose sender or session does not exist yet
// reads one once a change adds it.
func TestSolverAfterTopologyChangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39)) // #nosec test randomness
	p := netutil.MustParsePrefix("203.0.113.0/24")
	cust := PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer)}
	prov := PeerConfig{ClassifyAs: ClassProvider, ImportLocalPref: LocalPrefProvider, ExportAllow: GaoRexfordExport(ClassProvider)}
	peer := PeerConfig{ClassifyAs: ClassPeer, ImportLocalPref: LocalPrefPeer, ExportAllow: GaoRexfordExport(ClassPeer)}
	for trial := 0; trial < 50; trial++ {
		n := 6 + rng.Intn(25)
		net := randomGaoRexfordNetwork(rng, n)
		sv := net.NewStaticSolver()
		var taps []ExportTap
		for from := RouterID(1); from <= RouterID(n+4); from++ {
			for to := RouterID(1); to <= RouterID(n+4); to++ {
				if from != to {
					taps = append(taps, ExportTap{From: from, To: to})
				}
			}
		}
		sv.SetExportTaps(taps)
		solve := func(stage string, origins []StaticOrigin) {
			t.Helper()
			if err := diffSolverReference(net, sv, p, origins); err != nil {
				t.Fatalf("trial %d %s (origins %v): %v", trial, stage, origins, err)
			}
			got := sv.Solve(p, origins)
			var (
				tapBuf, wantBuf asn.Path
				tree            asn.PathTree
			)
			for k, tp := range taps {
				var ok, wantOK bool
				lo, wantLo := len(tapBuf), len(wantBuf)
				if ok = got.AddTapLeaf(&tree, k); ok {
					tapBuf = tree.AppendPath(tapBuf, tree.Len()-1)
				}
				wantBuf, wantOK = net.AppendExportPath(wantBuf, got, tp.From, tp.To)
				if ok != wantOK || !tapBuf[lo:].Equal(wantBuf[wantLo:]) {
					t.Fatalf("trial %d %s: tap %d -> %d reads %v (%v), AppendExportPath %v (%v)",
						trial, stage, tp.From, tp.To, tapBuf[lo:], ok, wantBuf[wantLo:], wantOK)
				}
			}
			want := net.NewStaticSolver().Solve(p, origins)
			if got.Converged != want.Converged || got.Rounds != want.Rounds {
				t.Fatalf("trial %d %s: converged=%v rounds=%d, fresh solver converged=%v rounds=%d",
					trial, stage, got.Converged, got.Rounds, want.Converged, want.Rounds)
			}
			for _, id := range net.order {
				if g, w := got.Best(id), want.Best(id); !reflect.DeepEqual(g, w) {
					t.Fatalf("trial %d %s: speaker %d best %+v, fresh solver %+v", trial, stage, id, g, w)
				}
			}
		}
		old := RouterID(1 + rng.Intn(n))
		solve("before", []StaticOrigin{{Speaker: old}})

		// A customer of two old speakers, a provider to a third, and a
		// new lateral peering between old speakers.
		id := RouterID(n + 3)
		net.AddSpeaker(id, asn.AS(1000+int(id)), "")
		solve("after AddSpeaker, isolated origin", []StaticOrigin{{Speaker: id}})
		net.Connect(1, id, cust, prov)
		net.Connect(RouterID(1+rng.Intn(n)/2+n/2), id, cust, prov)
		if c := RouterID(n); net.Speaker(c).Peer(id) == nil {
			net.Connect(id, c, cust, prov)
		}
		for {
			a, b := RouterID(1+rng.Intn(n)), RouterID(1+rng.Intn(n))
			if a != b && net.Speaker(a).Peer(b) == nil {
				net.Connect(a, b, peer, peer)
				break
			}
		}
		solve("after Connect", []StaticOrigin{{Speaker: old}})
		col := net.AddSpeaker(id+1, 64500, "collector")
		col.Collector = true
		net.Connect(id+1, id, peer, peer)
		net.Connect(id+1, old, peer, peer)

		solve("after, old origin", []StaticOrigin{{Speaker: old}})
		solve("after, new origin", []StaticOrigin{{Speaker: id}})
		solve("after, both origins", []StaticOrigin{{Speaker: old}, {Speaker: id}})

		// Policy: each setter on a session of the origin or of one of
		// its neighbors, so most of them move some speaker's route.
		origin := []StaticOrigin{{Speaker: old}}
		var saved bytes.Buffer
		if err := net.Snapshot(&saved); err != nil {
			t.Fatal(err)
		}
		if err := net.OpenJournal(); err != nil {
			t.Fatal(err)
		}
		peers := slices.DeleteFunc(net.Speaker(old).Peers(), func(id RouterID) bool { return net.Speaker(id).Collector })
		nb := peers[rng.Intn(len(peers))]
		far := net.Speaker(nb).Peers()
		nb2 := far[rng.Intn(len(far))]
		avoid := net.Speaker(nb).AS
		for _, step := range []struct {
			name string
			set  func()
		}{
			{"SetExportPrepend", func() { net.SetExportPrepend(old, nb, 3) }},
			{"SetPrefixPrepend", func() { net.SetPrefixPrepend(old, peers[0], p, 4) }},
			{"SetImportLocalPref", func() { net.SetImportLocalPref(nb, old, LocalPrefCustomer+50) }},
			{"SetExportAllow", func() { net.SetExportAllow(nb, nb2, GaoRexfordExport(ClassCustomer)) }},
			{"SetExportFilter", func() { net.SetExportFilter(old, peers[len(peers)-1], func(r *Route) bool { return r.Prefix != p }) }},
			{"SetImportDeny", func() { net.SetImportDeny(nb2, func(r *Route) bool { return r.Path.Contains(avoid) }) }},
			{"SetSessionDown", func() { net.SetSessionDown(old, nb) }},
			{"SetSessionUp", func() { net.SetSessionUp(old, nb) }},
			{"Rewind", func() {
				if err := net.Rewind(); err != nil {
					t.Fatal(err)
				}
				net.CloseJournal()
			}},
			{"SetExportPrepend again", func() { net.SetExportPrepend(old, nb, 2) }},
			{"RestoreNetwork", func() {
				if err := RestoreNetwork(bytes.NewReader(saved.Bytes()), net); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			step.set()
			solve("after "+step.name, origin)
		}
	}
}
