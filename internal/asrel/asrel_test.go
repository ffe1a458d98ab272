package asrel

import (
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
	res := Infer(paths)
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
	res := Infer(paths)
	if got := res.Rel(1, 2); got != RelPeer {
		t.Errorf("Rel(1,2) = %v, want peer", got)
	}
}

func TestPrependingCollapsed(t *testing.T) {
	res := Infer([]asn.Path{asn.MustParsePath("10 20 30 30 30")})
	if res.Rel(30, 30) != RelNone {
		t.Error("self-edge from prepending")
	}
	if res.Rel(20, 30) != RelProviderOf {
		t.Errorf("Rel(20,30) = %v", res.Rel(20, 30))
	}
}

// TestInferMatchesReference holds Infer's edges and relationships equal
// to the two-call reference inferrer's on seeded random path sets over
// small AS universes, so that edges overlap and degrees tie: prepend
// runs, poisoned repeats, 0- and 1-AS paths and duplicate paths.
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
		got, want := Infer(paths).Edges(), referenceInfer(paths).Edges()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: paths %v\nInfer     %v\nreference %v", trial, paths, got, want)
		}
		for _, e := range got {
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

// TestInferMatchesReferenceOnEcosystem runs both inferrers over every
// collector path of the -small ecosystem, read the way the survey reads
// them: one solve per origin, one export path per collector peer.
func TestInferMatchesReferenceOnEcosystem(t *testing.T) {
	eco := topo.Build(topo.SmallConfig())
	var origins []asn.AS
	seen := map[asn.AS]bool{}
	for _, pi := range eco.Prefixes {
		if !seen[pi.Origin] {
			seen[pi.Origin] = true
			origins = append(origins, pi.Origin)
		}
	}
	slices.Sort(origins)
	var paths []asn.Path
	for _, origin := range origins {
		info := eco.AS(origin)
		res := eco.Net.SolveStatic(info.Prefixes[0], []bgp.StaticOrigin{{Speaker: info.Router}})
		for _, col := range eco.Collectors {
			for _, peer := range eco.Net.Speaker(col).Peers() {
				if p, ok := eco.Net.AppendExportPath(nil, res, peer, col); ok {
					paths = append(paths, p)
				}
			}
		}
	}
	got, want := Infer(paths).Edges(), referenceInfer(paths).Edges()
	if len(want) < 100 {
		t.Fatalf("only %d edges inferred from %d paths", len(want), len(paths))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Infer and the reference differ over %d paths: %d and %d edges", len(paths), len(got), len(want))
	}
	t.Logf("%d edges equal over %d collector paths of %d origins", len(got), len(paths), len(origins))
}
