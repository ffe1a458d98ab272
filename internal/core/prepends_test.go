package core

import (
	"reflect"
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/topo"
)

// referenceOriginView is one origin's view read one session at a time:
// a fresh solve, and one AppendExportPath into a fresh slice per
// collector peer. It returns the view without its collector paths, and
// those paths. (bgp's solver-vs-reference differential holds
// AppendExportPath equal to the reference export on every session.)
func referenceOriginView(eco *topo.Ecosystem, origin asn.AS) (*OriginView, []asn.Path) {
	info := eco.AS(origin)
	ov := &OriginView{Origin: origin, REPrepend: -1, CommodityPrepend: -1}
	var paths []asn.Path
	res := eco.Net.SolveStatic(info.Prefixes[0], []bgp.StaticOrigin{{Speaker: info.Router}})
	for _, col := range eco.Collectors {
		for _, peer := range eco.Net.Speaker(col).Peers() {
			path, ok := eco.Net.AppendExportPath(nil, res, peer, col)
			if !ok {
				continue
			}
			paths = append(paths, path)
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
	return ov, paths
}

// paperQuarter is the paper's grammar with its populations divided by
// four: survey_paper's size.
func paperQuarter() topo.GenConfig {
	c := topo.DefaultConfig()
	c.MembersUS /= 4
	c.MembersIntl /= 4
	c.NIKSCustomers /= 4
	c.ExtraCollectorFeeds /= 4
	return c
}

// TestOriginViewsMatchExportView holds ComputeOriginViews, which adds
// the collector paths to each view's tree of runs through the solver's
// export taps, equal to the views built one collector session at a
// time through AppendExportPath, on every origin at -small and at the
// paper's grammar with its populations divided by four: every other
// field, and every path expanded from its leaf, in order. A view's
// arrays are exactly their size, its tree holds no more runs than its
// paths have hops, and a path expanded into a caller's buffer that the
// caller then appends to leaves every other path's expansion as it
// was.
func TestOriginViewsMatchExportView(t *testing.T) {
	for _, scale := range []struct {
		name string
		cfg  topo.GenConfig
	}{{"small", topo.SmallConfig()}, {"paper÷4", paperQuarter()}} {
		eco := topo.Build(scale.cfg)
		views := ComputeOriginViews(eco)
		paths, runs, hops, appended := 0, 0, 0, 0
		for origin, got := range views {
			want, wantPaths := referenceOriginView(eco, origin)
			tree := &got.CollectorPaths
			fields := *got
			fields.CollectorPaths = asn.PathTree{}
			if !reflect.DeepEqual(&fields, want) {
				t.Fatalf("%s origin AS%s: view %+v, per-session reading %+v", scale.name, origin, fields, *want)
			}
			if tree.Len() != len(wantPaths) {
				t.Fatalf("%s origin AS%s: %d collector paths, per-session reading %d", scale.name, origin, tree.Len(), len(wantPaths))
			}
			viewHops := 0
			for i, w := range wantPaths {
				if g := tree.AppendPath(nil, i); !g.Equal(w) {
					t.Fatalf("%s origin AS%s: collector path %d is %v, per-session reading %v", scale.name, origin, i, g, w)
				}
				viewHops += len(w)
			}
			if held, used := tree.Bytes(); held != used {
				t.Fatalf("%s origin AS%s: tree holds %d bytes for the %d it uses", scale.name, origin, held, used)
			}
			if tree.Runs() > viewHops {
				t.Fatalf("%s origin AS%s: %d runs for %d hops", scale.name, origin, tree.Runs(), viewHops)
			}
			var buf asn.Path
			for i := range wantPaths {
				buf = append(tree.AppendPath(buf[:0], i), 64512, 64513)
				appended++
			}
			for i, w := range wantPaths {
				if g := tree.AppendPath(nil, i); !g.Equal(w) {
					t.Fatalf("%s origin AS%s: after appending to expansions, collector path %d is %v, was %v",
						scale.name, origin, i, g, w)
				}
			}
			paths, runs, hops = paths+len(wantPaths), runs+tree.Runs(), hops+viewHops
		}
		if appended == 0 {
			t.Fatalf("%s: no collector path to append to", scale.name)
		}
		t.Logf("%s: %d origin views equal to the per-session reading: %d paths, %d hops, %d runs",
			scale.name, len(views), paths, hops, runs)
	}
}

// TestOriginViewBytesPerPath: at the paper's grammar with its
// populations divided by four, the origin views hold at most 18 bytes
// per collector path in their trees, counted by capacity. (As a slice
// of asn.Path apiece they held 24 bytes of header and 4 per hop,
// about 49 per path.)
func TestOriginViewBytesPerPath(t *testing.T) {
	views := ComputeOriginViews(topo.Build(paperQuarter()))
	held, paths, runs := 0, 0, 0
	for _, ov := range views {
		h, _ := ov.CollectorPaths.Bytes()
		held, paths, runs = held+h, paths+ov.CollectorPaths.Len(), runs+ov.CollectorPaths.Runs()
	}
	perPath := float64(held) / float64(paths)
	t.Logf("%d views, %d paths, %d runs, %d bytes held: %.2f B per path", len(views), paths, runs, held, perPath)
	if perPath > 18 {
		t.Errorf("origin views hold %.2f B per collector path, want <= 18", perPath)
	}
}
