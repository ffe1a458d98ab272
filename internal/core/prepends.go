package core

import (
	"sort"
	"sync"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/topo"
)

// OriginView summarizes what public BGP shows for one origin AS's
// prefixes: the origin's prepending toward R&E and commodity
// directions (per §4.2's immediate-upstream classification) and how
// RIPE reaches it (§4.3).
type OriginView struct {
	Origin asn.AS
	// REPrepend / CommodityPrepend are the largest origin prepend
	// counts observed in collector paths whose immediate upstream is
	// an R&E (resp. commodity) AS; -1 if no path in that direction
	// was observed.
	REPrepend        int
	CommodityPrepend int
	// RIPEHasRoute / RIPEViaRE describe RIPE's converged choice.
	RIPEHasRoute bool
	RIPEViaRE    bool
	// CollectorPaths are the AS paths the collectors observed for
	// this origin's announcements, one per collector peer holding a
	// route, in collector and then peer order, as a tree of shared
	// runs: Len paths, path i read with AppendPath. Downstream
	// analyses (relationship inference) read them one at a time.
	CollectorPaths asn.PathTree
}

// viewMemory is one running shard's working memory: its solver, with
// the collector sessions as its export taps, and the tree one origin's
// collector paths are added to before it is copied out.
type viewMemory struct {
	sv   *bgp.StaticSolver
	tree asn.PathTree
}

// ComputeOriginViews solves converged routing for each origin AS's
// announcements and extracts collector and RIPE views. One solve per
// origin suffices because an origin announces all its prefixes with
// the same per-session policy. Solves are independent reads of the
// quiescent network, so they run across all CPUs; the result is
// deterministic regardless of scheduling. Each running shard draws a
// viewMemory from a pool and reads its result — which borrows the
// solver — before handing the memory back. A view's collector paths
// are the solver's path cells they run through, copied once each into
// the view's tree, whose arrays are exactly their size.
func ComputeOriginViews(eco *topo.Ecosystem) map[asn.AS]*OriginView {
	// Every collector's peers' exports to it, the same sessions for
	// every origin: each shard's solver resolves them once.
	var taps []bgp.ExportTap
	for _, col := range eco.Collectors {
		for _, peer := range eco.Net.Speaker(col).Peers() {
			taps = append(taps, bgp.ExportTap{From: peer, To: col})
		}
	}

	origins := make([]asn.AS, 0)
	seen := make(map[asn.AS]bool)
	for _, pi := range eco.Prefixes {
		if !seen[pi.Origin] {
			seen[pi.Origin] = true
			origins = append(origins, pi.Origin)
		}
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })

	// One origin per shard: a panicking solve surfaces as a ShardPanic
	// naming its origin's index.
	var memory sync.Pool
	results := parallel.Collect(len(origins), 1, 0, func(s parallel.Shard) *OriginView {
		origin := origins[s.Lo]
		info := eco.AS(origin)
		ov := &OriginView{Origin: origin, REPrepend: -1, CommodityPrepend: -1}
		mem, _ := memory.Get().(*viewMemory)
		if mem == nil {
			mem = &viewMemory{sv: eco.Net.NewStaticSolver()}
			mem.sv.SetExportTaps(taps)
		}
		// Solve one representative prefix for this origin.
		p := info.Prefixes[0]
		res := mem.sv.Solve(p, []bgp.StaticOrigin{{Speaker: info.Router}})

		t := &mem.tree
		t.Reset()
		for k := range taps {
			if !res.AddTapLeaf(t, k) {
				continue
			}
			leaf := t.Len() - 1
			up, pre := t.NeighborOfOrigin(leaf), t.PrependCount(leaf)
			if eco.REASNs[up] {
				ov.REPrepend = max(ov.REPrepend, pre)
			} else if up != asn.None {
				ov.CommodityPrepend = max(ov.CommodityPrepend, pre)
			}
		}
		ov.CollectorPaths = t.Compact()
		if best := res.Best(eco.RIPE.Router); best != nil {
			ov.RIPEHasRoute = true
			// §4.3: classify RIPE's neighbors as R&E or commodity.
			if nb := eco.ByRouter(best.From); nb != nil {
				ov.RIPEViaRE = eco.REASNs[nb.AS]
			}
		}
		memory.Put(mem)
		return ov
	})

	views := make(map[asn.AS]*OriginView, len(origins))
	for i, origin := range origins {
		views[origin] = results[i]
	}
	return views
}

// PrependRel is Table 4's column: the origin's relative prepending
// between R&E and commodity directions.
type PrependRel uint8

// Relations.
const (
	// RelEqual: equally prepended (R = C), including not at all.
	RelEqual PrependRel = iota
	// RelRLessC: prepended more toward commodity (R < C).
	RelRLessC
	// RelRGreaterC: prepended more toward R&E (R > C).
	RelRGreaterC
	// RelNoCommodity: no commodity-direction route observed.
	RelNoCommodity
)

func (r PrependRel) String() string {
	switch r {
	case RelEqual:
		return "R=C"
	case RelRLessC:
		return "R<C"
	case RelRGreaterC:
		return "R>C"
	default:
		return "No commodity"
	}
}

// Rel classifies an origin view into a Table 4 column.
func (ov *OriginView) Rel() PrependRel {
	switch {
	case ov.CommodityPrepend < 0:
		return RelNoCommodity
	case ov.REPrepend < 0:
		// Observed only via commodity; compare against zero R&E
		// prepending (the origin still announces R&E unprepended, it
		// just was not visible — treat as R side 0).
		return relOf(0, ov.CommodityPrepend)
	default:
		return relOf(ov.REPrepend, ov.CommodityPrepend)
	}
}

func relOf(r, c int) PrependRel {
	switch {
	case r < c:
		return RelRLessC
	case r > c:
		return RelRGreaterC
	default:
		return RelEqual
	}
}

// PrependAnalysis is Table 4: inference category vs relative origin
// prepending, by prefix.
type PrependAnalysis struct {
	Counts map[Inference]map[PrependRel]int
	Totals map[PrependRel]int
}

// prependRows is Table 4's row order.
var prependRows = []Inference{InfAlwaysRE, InfAlwaysCommodity, InfSwitchToRE, InfMixed}

// prependCols is Table 4's column order.
var prependCols = []PrependRel{RelEqual, RelRLessC, RelRGreaterC, RelNoCommodity}

// AnalyzePrepending builds Table 4 from an experiment's inferences and
// the origin views.
func AnalyzePrepending(eco *topo.Ecosystem, res *Result, views map[asn.AS]*OriginView) *PrependAnalysis {
	pa := &PrependAnalysis{
		Counts: make(map[Inference]map[PrependRel]int),
		Totals: make(map[PrependRel]int),
	}
	for _, inf := range prependRows {
		pa.Counts[inf] = make(map[PrependRel]int)
	}
	for _, pr := range res.PerPrefix {
		row := pr.Inference
		if _, ok := pa.Counts[row]; !ok {
			continue // unresponsive, oscillating, switch-to-commodity
		}
		pi := eco.PrefixInfoFor(pr.Prefix)
		if pi == nil {
			continue
		}
		ov := views[pi.Origin]
		if ov == nil {
			continue
		}
		rel := ov.Rel()
		pa.Counts[row][rel]++
		pa.Totals[rel]++
	}
	return pa
}

// Table renders the Table 4 layout.
func (pa *PrependAnalysis) Table() *report.Table {
	t := &report.Table{
		Title:   "Table 4: origin prepending vs route preference inference (prefixes)",
		Headers: []string{"Inference", "R=C", "R<C", "R>C", "No commodity"},
	}
	for _, inf := range prependRows {
		cells := []string{inf.String()}
		for _, col := range prependCols {
			n := pa.Counts[inf][col]
			cells = append(cells, itoa(n)+" ("+report.Pct(n, pa.Totals[col])+")")
		}
		t.AddRow(cells...)
	}
	cells := []string{"Total"}
	for _, col := range prependCols {
		cells = append(cells, itoa(pa.Totals[col]))
	}
	t.AddRow(cells...)
	return t
}
