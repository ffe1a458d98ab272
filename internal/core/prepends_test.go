package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/topo"
)

// referenceOriginView is one origin's view read one session at a time:
// a fresh solve, and one AppendExportPath into a fresh slice per
// collector peer. (bgp's solver-vs-reference differential holds
// AppendExportPath equal to the reference export on every session.)
func referenceOriginView(eco *topo.Ecosystem, origin asn.AS) *OriginView {
	info := eco.AS(origin)
	ov := &OriginView{Origin: origin, REPrepend: -1, CommodityPrepend: -1}
	res := eco.Net.SolveStatic(info.Prefixes[0], []bgp.StaticOrigin{{Speaker: info.Router}})
	for _, col := range eco.Collectors {
		for _, peer := range eco.Net.Speaker(col).Peers() {
			path, ok := eco.Net.AppendExportPath(nil, res, peer, col)
			if !ok {
				continue
			}
			ov.CollectorPaths = append(ov.CollectorPaths, path)
			up, pre := path.NeighborOfOrigin(), path.PrependCount()
			if eco.REASNs[up] {
				ov.REPrepend = max(ov.REPrepend, pre)
			} else if up != asn.None {
				ov.CommodityPrepend = max(ov.CommodityPrepend, pre)
			}
		}
	}
	if best := res.Best(eco.RIPE.Router); best != nil {
		ov.RIPEHasRoute = true
		if nb := eco.ByRouter(best.From); nb != nil {
			ov.RIPEViaRE = eco.REASNs[nb.AS]
		}
	}
	return ov
}

// TestOriginViewsMatchExportView holds ComputeOriginViews, which reads
// the collector paths into one slab per view, equal to the views built
// one collector session at a time, on every origin at -small.
// The paths of a view are capped sub-slices of its slab: appending to
// one must leave the next as it was.
func TestOriginViewsMatchExportView(t *testing.T) {
	eco := topo.Build(topo.SmallConfig())
	views := ComputeOriginViews(eco)
	aliasChecked := 0
	for origin, got := range views {
		if want := referenceOriginView(eco, origin); !reflect.DeepEqual(got, want) {
			t.Fatalf("origin AS%s: view %+v, per-session reading %+v", origin, got, want)
		}
		paths := got.CollectorPaths
		for i := 0; i+1 < len(paths); i++ {
			next := slices.Clone(paths[i+1])
			_ = append(paths[i], 64512)
			if !paths[i+1].Equal(next) {
				t.Fatalf("origin AS%s: appending to collector path %d rewrote path %d: %v, was %v",
					origin, i, i+1, paths[i+1], next)
			}
			aliasChecked++
		}
	}
	if aliasChecked == 0 {
		t.Fatal("no view with two collector paths to check for aliasing")
	}
	t.Logf("%d origin views equal to the per-session reading; %d appends left the next path intact", len(views), aliasChecked)
}
