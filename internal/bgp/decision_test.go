package bgp

import (
	"math/rand"
	"testing"

	"repro/internal/asn"
	"repro/internal/netutil"
)

var testPrefix = netutil.MustParsePrefix("163.253.0.0/16")

func mkRoute(lp uint32, pathLen int, from RouterID) *Route {
	path := make(asn.Path, pathLen)
	for i := range path {
		path[i] = asn.AS(1000 + i)
	}
	return &Route{
		Prefix:    testPrefix,
		Path:      path,
		LocalPref: lp,
		From:      from,
		FromAS:    asn.AS(from),
		EBGP:      true,
	}
}

func TestCompareLocalPrefDominatesPathLength(t *testing.T) {
	// The crux of the paper: a higher localpref wins regardless of AS
	// path length.
	long := mkRoute(200, 9, 1)
	short := mkRoute(100, 1, 2)
	if c, step := Compare(long, short); c >= 0 || step != ByLocalPref {
		t.Errorf("Compare = %d,%v; want long path preferred by localpref", c, step)
	}
}

func TestComparePathLength(t *testing.T) {
	a := mkRoute(100, 2, 1)
	b := mkRoute(100, 3, 2)
	if c, step := Compare(a, b); c >= 0 || step != ByPathLen {
		t.Errorf("Compare = %d,%v; want shorter path", c, step)
	}
}

func TestCompareOrigin(t *testing.T) {
	a, b := mkRoute(100, 2, 1), mkRoute(100, 2, 2)
	a.Origin, b.Origin = OriginIGP, OriginIncomplete
	if c, step := Compare(a, b); c >= 0 || step != ByOrigin {
		t.Errorf("Compare = %d,%v; want IGP origin preferred", c, step)
	}
}

func TestCompareMEDOnlySameNeighbor(t *testing.T) {
	a, b := mkRoute(100, 2, 1), mkRoute(100, 2, 2)
	a.MED, b.MED = 10, 5
	// Different neighbor AS: MED ignored, falls to later steps.
	if _, step := Compare(a, b); step == ByMED {
		t.Error("MED compared across different neighbor ASes")
	}
	b.FromAS = a.FromAS
	if c, step := Compare(a, b); c <= 0 || step != ByMED {
		t.Errorf("Compare = %d,%v; want lower MED preferred", c, step)
	}
}

func TestCompareEBGPOverIBGP(t *testing.T) {
	a, b := mkRoute(100, 2, 1), mkRoute(100, 2, 2)
	b.EBGP = false
	if c, step := Compare(a, b); c >= 0 || step != ByEBGP {
		t.Errorf("Compare = %d,%v; want eBGP preferred", c, step)
	}
}

func TestCompareIGPCost(t *testing.T) {
	a, b := mkRoute(100, 2, 1), mkRoute(100, 2, 2)
	a.IGPCost, b.IGPCost = 5, 3
	if c, step := Compare(a, b); c <= 0 || step != ByIGPCost {
		t.Errorf("Compare = %d,%v; want lower IGP cost", c, step)
	}
}

func TestCompareRouteAge(t *testing.T) {
	// Appendix A: with equal localpref and path length, the oldest
	// route wins.
	older, newer := mkRoute(100, 2, 1), mkRoute(100, 2, 2)
	older.LearnedAt, newer.LearnedAt = 100, 200
	if c, step := Compare(older, newer); c >= 0 || step != ByAge {
		t.Errorf("Compare = %d,%v; want older route preferred", c, step)
	}
}

func TestCompareRouterID(t *testing.T) {
	a, b := mkRoute(100, 2, 3), mkRoute(100, 2, 7)
	if c, step := Compare(a, b); c >= 0 || step != ByRouterID {
		t.Errorf("Compare = %d,%v; want lower router ID", c, step)
	}
}

func TestCompareEqual(t *testing.T) {
	a := mkRoute(100, 2, 3)
	b := mkRoute(100, 2, 3)
	if c, step := Compare(a, b); c != 0 || step != ByNone {
		t.Errorf("Compare identical = %d,%v; want 0,equal", c, step)
	}
}

// randomRoute builds a route with random decision-relevant fields.
func randomRoute(rng *rand.Rand) *Route {
	r := mkRoute(uint32(rng.Intn(4)*100+100), 1+rng.Intn(4), RouterID(1+rng.Intn(5)))
	r.Origin = Origin(rng.Intn(3))
	r.MED = uint32(rng.Intn(3))
	r.EBGP = rng.Intn(4) != 0
	r.IGPCost = uint32(rng.Intn(3))
	r.LearnedAt = Time(rng.Intn(3))
	r.FromAS = asn.AS(1 + rng.Intn(3))
	return r
}

// referenceCompare is Compare as it stood before the rule order moved
// onto candView, kept verbatim apart from its name.
func referenceCompare(a, b *Route) (int, DecisionStep) {
	// 1. Highest localpref.
	if a.LocalPref != b.LocalPref {
		if a.LocalPref > b.LocalPref {
			return -1, ByLocalPref
		}
		return 1, ByLocalPref
	}
	// 2. Shortest AS path.
	if la, lb := a.Path.Len(), b.Path.Len(); la != lb {
		if la < lb {
			return -1, ByPathLen
		}
		return 1, ByPathLen
	}
	// 3. Lowest origin.
	if a.Origin != b.Origin {
		if a.Origin < b.Origin {
			return -1, ByOrigin
		}
		return 1, ByOrigin
	}
	// 4. Lowest MED, only comparable between routes from the same
	// neighboring AS.
	if a.FromAS == b.FromAS && a.MED != b.MED {
		if a.MED < b.MED {
			return -1, ByMED
		}
		return 1, ByMED
	}
	// 5. Prefer eBGP-learned over iBGP-learned.
	if a.EBGP != b.EBGP {
		if a.EBGP {
			return -1, ByEBGP
		}
		return 1, ByEBGP
	}
	// 6. Lowest IGP cost to the exit.
	if a.IGPCost != b.IGPCost {
		if a.IGPCost < b.IGPCost {
			return -1, ByIGPCost
		}
		return 1, ByIGPCost
	}
	// 7. Oldest route (stability preference).
	if a.LearnedAt != b.LearnedAt {
		if a.LearnedAt < b.LearnedAt {
			return -1, ByAge
		}
		return 1, ByAge
	}
	// 8. Lowest router ID of the advertising speaker.
	if a.From != b.From {
		if a.From < b.From {
			return -1, ByRouterID
		}
		return 1, ByRouterID
	}
	return 0, ByNone
}

// TestCompareMatchesReference pins the one comparator to the two it
// replaced. On random route pairs (MED within and across neighbor ASes,
// iBGP, equal From, differing age) Compare must return the old
// comparator's value and step. On random solver views, the way relax
// asks it must agree in sign with compareShape, the solver's own
// comparator: there only the incumbent may be an origination, because
// relax only ever challenges with an import.
func TestCompareMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26)) // #nosec test randomness
	steps := make(map[DecisionStep]int)
	for i := 0; i < 20000; i++ {
		a, b := randomRoute(rng), randomRoute(rng)
		if i%16 == 0 {
			// The same neighbor's route again, a fresh copy or re-learned.
			again := *a
			again.LearnedAt = Time(rng.Intn(2)) * a.LearnedAt
			b = &again
		}
		gc, gs := Compare(a, b)
		wc, ws := referenceCompare(a, b)
		if gc != wc || gs != ws {
			t.Fatalf("Compare = %d,%v; reference %d,%v\na=%v\nb=%v", gc, gs, wc, ws, a, b)
		}
		steps[gs]++
	}
	for s := ByNone; s <= ByRouterID; s++ {
		if steps[s] == 0 {
			t.Errorf("no random route pair decided by %v", s)
		}
	}

	randomImport := func() candView {
		return candView{
			plen:   rng.Intn(3),
			lp:     []uint32{100, 200, LocalPrefOwn}[rng.Intn(3)],
			med:    uint32(rng.Intn(3)),
			igp:    uint32(rng.Intn(3)),
			fromAS: asn.AS(rng.Intn(3)),
			from:   RouterID(1 + rng.Intn(4)),
			origin: Origin(rng.Intn(3)),
			ebgp:   true,
		}
	}
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	for i := 0; i < 20000; i++ {
		best, cand := randomImport(), randomImport()
		if rng.Intn(4) == 0 {
			best = ownNode.candView
		}
		c, _ := cand.compare(&best)
		if want := -sign(compareShape(best, cand)); sign(c) != want {
			t.Fatalf("candidate %+v against best %+v: compare %d, compareShape says %d", cand, best, c, want)
		}
	}
}

// TestCompareAntisymmetric checks Compare(a,b) == -Compare(b,a).
//
// Note the full relation is not transitive in real BGP because of the
// conditional MED rule; the engine always reduces candidate sets with
// a single linear pass (Best), which tolerates that, and this test
// pins the antisymmetry that pass relies on.
func TestCompareAntisymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5)) // #nosec test randomness
	for i := 0; i < 5000; i++ {
		a, b := randomRoute(rng), randomRoute(rng)
		ab, s1 := Compare(a, b)
		ba, s2 := Compare(b, a)
		if ab != -ba {
			t.Fatalf("not antisymmetric: Compare(a,b)=%d(%v) Compare(b,a)=%d(%v)\na=%v\nb=%v", ab, s1, ba, s2, a, b)
		}
	}
}

// TestCompareTransitiveWithoutMED checks transitivity when MED cannot
// interfere (all routes from distinct neighbor ASes with equal MED).
func TestCompareTransitiveWithoutMED(t *testing.T) {
	rng := rand.New(rand.NewSource(6)) // #nosec test randomness
	for i := 0; i < 3000; i++ {
		a, b, c := randomRoute(rng), randomRoute(rng), randomRoute(rng)
		a.MED, b.MED, c.MED = 0, 0, 0
		ab, _ := Compare(a, b)
		bc, _ := Compare(b, c)
		ac, _ := Compare(a, c)
		if ab < 0 && bc < 0 && ac >= 0 {
			t.Fatalf("not transitive:\na=%v\nb=%v\nc=%v", a, b, c)
		}
	}
}

func TestBest(t *testing.T) {
	if b, _ := Best(nil); b != nil {
		t.Error("Best(nil) should be nil")
	}
	if b, _ := Best([]*Route{nil, nil}); b != nil {
		t.Error("Best of nils should be nil")
	}
	lo := mkRoute(100, 2, 1)
	hi := mkRoute(200, 5, 2)
	best, step := Best([]*Route{lo, hi})
	if best != hi || step != ByLocalPref {
		t.Errorf("Best = %v (%v), want high-localpref route", best, step)
	}
	// Best must be independent of order for a 2-element set.
	best2, _ := Best([]*Route{hi, lo})
	if best2 != hi {
		t.Error("Best depends on candidate order")
	}
}

func TestDecisionStepString(t *testing.T) {
	steps := []DecisionStep{ByNone, ByLocalPref, ByPathLen, ByOrigin, ByMED, ByEBGP, ByIGPCost, ByAge, ByRouterID, DecisionStep(200)}
	seen := map[string]bool{}
	for _, s := range steps {
		str := s.String()
		if str == "" {
			t.Errorf("step %d has empty String", s)
		}
		if seen[str] {
			t.Errorf("duplicate step name %q", str)
		}
		seen[str] = true
	}
}
