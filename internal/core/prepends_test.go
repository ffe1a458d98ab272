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
// the collector paths through each solver's export taps into one slab
// per view, equal to the views built one collector session at a time
// through AppendExportPath, on every origin at -small and at the
// paper's grammar with its populations divided by four. The paths of a
// view are capped sub-slices of its slab: appending to one must leave
// the next as it was.
func TestOriginViewsMatchExportView(t *testing.T) {
	quarter := topo.DefaultConfig()
	quarter.MembersUS /= 4
	quarter.MembersIntl /= 4
	quarter.NIKSCustomers /= 4
	quarter.ExtraCollectorFeeds /= 4
	for _, scale := range []struct {
		name string
		cfg  topo.GenConfig
	}{{"small", topo.SmallConfig()}, {"paper÷4", quarter}} {
		eco := topo.Build(scale.cfg)
		views := ComputeOriginViews(eco)
		aliasChecked := 0
		for origin, got := range views {
			if want := referenceOriginView(eco, origin); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s origin AS%s: view %+v, per-session reading %+v", scale.name, origin, got, want)
			}
			paths := got.CollectorPaths
			for i := 0; i+1 < len(paths); i++ {
				next := slices.Clone(paths[i+1])
				_ = append(paths[i], 64512)
				if !paths[i+1].Equal(next) {
					t.Fatalf("%s origin AS%s: appending to collector path %d rewrote path %d: %v, was %v",
						scale.name, origin, i, i+1, paths[i+1], next)
				}
				aliasChecked++
			}
		}
		if aliasChecked == 0 {
			t.Fatalf("%s: no view with two collector paths to check for aliasing", scale.name)
		}
		t.Logf("%s: %d origin views equal to the per-session reading; %d appends left the next path intact",
			scale.name, len(views), aliasChecked)
	}
}
