package asrel

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/topo"
)

func TestRelInvert(t *testing.T) {
	if RelProviderOf.Invert() != RelCustomerOf || RelCustomerOf.Invert() != RelProviderOf {
		t.Error("transit inversion wrong")
	}
	if RelPeer.Invert() != RelPeer || RelNone.Invert() != RelNone {
		t.Error("symmetric relations must self-invert")
	}
	for _, r := range []Rel{RelNone, RelProviderOf, RelCustomerOf, RelPeer} {
		if r.String() == "" {
			t.Errorf("rel %d empty string", r)
		}
	}
}

func TestInferSimpleChain(t *testing.T) {
	// Paths observed at a collector attached to a tier-1 (AS 10):
	// 10 is high degree; everything hangs below it.
	paths := []asn.Path{
		asn.MustParsePath("10 20 30"),
		asn.MustParsePath("10 20 31"),
		asn.MustParsePath("10 21 32"),
		asn.MustParsePath("10 21 33"),
		asn.MustParsePath("10 22"),
	}
	res := Infer(Paths(paths))
	if got := res.Rel(10, 20); got != RelProviderOf {
		t.Errorf("Rel(10,20) = %v, want provider-of", got)
	}
	if got := res.Rel(20, 10); got != RelCustomerOf {
		t.Errorf("Rel(20,10) = %v, want customer-of", got)
	}
	if got := res.Rel(20, 30); got != RelProviderOf {
		t.Errorf("Rel(20,30) = %v, want provider-of", got)
	}
	if got := res.Rel(30, 31); got != RelNone {
		t.Errorf("Rel(30,31) = %v, want none (no edge)", got)
	}
}

func TestInferPeeringAtTop(t *testing.T) {
	// Two equal-degree cores 1 and 2 exchanging customer routes: the
	// 1-2 edge carries conflicting transit votes and must come out as
	// peer.
	paths := []asn.Path{
		asn.MustParsePath("1 2 20"),
		asn.MustParsePath("2 1 10"),
		asn.MustParsePath("1 10"),
		asn.MustParsePath("1 11"),
		asn.MustParsePath("2 20"),
		asn.MustParsePath("2 21"),
	}
	res := Infer(Paths(paths))
	if got := res.Rel(1, 2); got != RelPeer {
		t.Errorf("Rel(1,2) = %v, want peer", got)
	}
}

func TestPrependingCollapsed(t *testing.T) {
	res := Infer(Paths([]asn.Path{asn.MustParsePath("10 20 30 30 30")}))
	if res.Rel(30, 30) != RelNone {
		t.Error("self-edge from prepending")
	}
	if res.Rel(20, 30) != RelProviderOf {
		t.Errorf("Rel(20,30) = %v", res.Rel(20, 30))
	}
}

// inferDiff holds Infer over the paths as a source equal, edge for
// edge, to the two-call reference inferrer's and to the slice-and-slab
// form's.
func inferDiff(paths []asn.Path) error {
	got := Infer(Paths(paths)).Edges()
	for _, ref := range []struct {
		name string
		res  *Result
	}{{"two-call reference", referenceInfer(paths)}, {"slab form", slabInfer(paths)}} {
		if want := ref.res.Edges(); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Infer and the %s differ over %d paths: %d and %d edges\nInfer %v\n%s %v",
				ref.name, len(paths), len(got), len(want), got, ref.name, want)
		}
	}
	return nil
}

// TestInferMatchesReference holds Infer's edges and relationships equal
// to the two-call reference inferrer's and the slab form's on seeded
// random path sets over small AS universes, so that edges overlap and
// degrees tie: prepend runs, poisoned repeats, 0- and 1-AS paths and
// duplicate paths.
func TestInferMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37)) // #nosec test randomness
	var short, prepended, poisoned, duplicated int
	rels := map[Rel]int{}
	for trial := 0; trial < 5000; trial++ {
		universe := 2 + rng.Intn(20)
		paths := make([]asn.Path, rng.Intn(30))
		for i := range paths {
			if i > 0 && rng.Intn(8) == 0 {
				paths[i] = paths[rng.Intn(i)]
				duplicated++
				continue
			}
			var p asn.Path
			for hops := rng.Intn(10); len(p) < hops; {
				a := asn.AS(1 + rng.Intn(universe))
				if len(p) > 1 && rng.Intn(6) == 0 {
					a = p[rng.Intn(len(p)-1)] // an AS seen before the last
					poisoned++
				}
				run := 1 + rng.Intn(3)
				if run > 1 {
					prepended++
				}
				for ; run > 0; run-- {
					p = append(p, a)
				}
			}
			if len(p) < 2 {
				short++
			}
			paths[i] = p
		}
		if err := inferDiff(paths); err != nil {
			t.Fatalf("trial %d: paths %v: %v", trial, paths, err)
		}
		for _, e := range Infer(Paths(paths)).Edges() {
			rels[e.Rel]++
		}
	}
	if short == 0 || prepended == 0 || poisoned == 0 || duplicated == 0 {
		t.Fatalf("generator missed a case: %d short, %d prepended, %d poisoned, %d duplicated paths",
			short, prepended, poisoned, duplicated)
	}
	if rels[RelProviderOf] == 0 || rels[RelCustomerOf] == 0 || rels[RelPeer] == 0 {
		t.Fatalf("not every relationship inferred: %v", rels)
	}
}

// TestInferMatchesReferenceOnEcosystem runs Infer, the reference and
// the slab form over every collector path of the -small ecosystem and
// of the paper's grammar with its populations divided by four, read the
// way the survey reads them: one solve per origin, one export path per
// collector peer, origins in order.
func TestInferMatchesReferenceOnEcosystem(t *testing.T) {
	quarter := topo.DefaultConfig()
	quarter.MembersUS /= 4
	quarter.MembersIntl /= 4
	quarter.NIKSCustomers /= 4
	quarter.ExtraCollectorFeeds /= 4
	for _, scale := range []struct {
		name     string
		cfg      topo.GenConfig
		minEdges int
	}{{"small", topo.SmallConfig(), 100}, {"paper÷4", quarter, 1000}} {
		eco := topo.Build(scale.cfg)
		var origins []asn.AS
		seen := map[asn.AS]bool{}
		for _, pi := range eco.Prefixes {
			if !seen[pi.Origin] {
				seen[pi.Origin] = true
				origins = append(origins, pi.Origin)
			}
		}
		slices.Sort(origins)
		sv := eco.Net.NewStaticSolver()
		var paths []asn.Path
		for _, origin := range origins {
			info := eco.AS(origin)
			res := sv.Solve(info.Prefixes[0], []bgp.StaticOrigin{{Speaker: info.Router}})
			for _, col := range eco.Collectors {
				for _, peer := range eco.Net.Speaker(col).Peers() {
					if p, ok := eco.Net.AppendExportPath(nil, res, peer, col); ok {
						paths = append(paths, p)
					}
				}
			}
		}
		if err := inferDiff(paths); err != nil {
			t.Fatalf("%s: %v", scale.name, err)
		}
		if n := Infer(Paths(paths)).Len(); n < scale.minEdges {
			t.Fatalf("%s: only %d edges inferred from %d paths", scale.name, n, len(paths))
		}
		t.Logf("%s: %d edges equal over %d collector paths of %d origins", scale.name, Infer(Paths(paths)).Len(), len(paths), len(origins))
	}
}
