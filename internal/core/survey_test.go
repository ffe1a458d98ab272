package core

import (
	"strings"
	"testing"

	"repro/internal/topo"
)

func TestItoa(t *testing.T) {
	tests := []struct {
		n    int
		want string
	}{{0, "0"}, {5, "5"}, {42, "42"}, {12047, "12047"}}
	for _, tt := range tests {
		if got := itoa(tt.n); got != tt.want {
			t.Errorf("itoa(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

func TestSummarizeTableRendering(t *testing.T) {
	s := getSurvey(t)
	sum := Summarize(s.Eco, s.Internet2)
	out := sum.Table().String()
	for _, want := range []string{"Always R&E", "Switch to R&E", "Total:", "Internet2"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Category prefix counts sum to the total.
	total := 0
	for _, inf := range tableOrder {
		total += sum.PrefixCount[inf]
	}
	if total != sum.TotalPrefixes {
		t.Errorf("category sum %d != total %d", total, sum.TotalPrefixes)
	}
	// AS sets only contain real origins, and every categorized AS
	// appears in at least one category.
	for inf, set := range sum.ASSet {
		for as := range set {
			if s.Eco.AS(as) == nil {
				t.Errorf("category %v contains unknown AS %v", inf, as)
			}
		}
	}
}

func TestInferencesByASMostFrequent(t *testing.T) {
	s := getSurvey(t)
	byAS := InferencesByAS(s.Eco, s.Internet2)
	if len(byAS) == 0 {
		t.Fatal("no per-AS inferences")
	}
	// Cross-check a few ASes against a manual tally.
	checked := 0
	for as, inf := range byAS {
		counts := map[Inference]int{}
		for _, pr := range s.Internet2.PerPrefix {
			pi := s.Eco.PrefixInfoFor(pr.Prefix)
			if pi == nil || pi.Origin != as || pr.Inference == InfUnresponsive {
				continue
			}
			counts[pr.Inference]++
		}
		best, bestN, tie := Inference(0), -1, false
		for i, n := range counts {
			switch {
			case n > bestN:
				best, bestN, tie = i, n, false
			case n == bestN:
				tie = true
				_ = i
			}
		}
		if tie {
			t.Errorf("AS %v has a tie but appears in byAS", as)
		} else if best != inf {
			t.Errorf("AS %v: byAS=%v, manual=%v", as, inf, best)
		}
		checked++
		if checked > 30 {
			break
		}
	}
}

func TestCompareTableRendering(t *testing.T) {
	s := getSurvey(t)
	c := Compare(s.Eco, s.SURF, s.Internet2)
	out := c.Table().String()
	for _, want := range []string{"Incomparable prefixes:", "Same inferences:", "Comparable prefixes:"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
	// Matrix totals are consistent.
	sum := 0
	for _, a := range comparableInferences {
		for _, b := range comparableInferences {
			sum += c.Matrix[a][b]
		}
	}
	if sum != c.Comparable {
		t.Errorf("matrix sum %d != comparable %d", sum, c.Comparable)
	}
	if c.Same+c.Different != c.Comparable {
		t.Errorf("same %d + different %d != comparable %d", c.Same, c.Different, c.Comparable)
	}
}

func TestValidateGradeMatrix(t *testing.T) {
	tests := []struct {
		inf  Inference
		pol  topo.REPolicy
		want Verdict
	}{
		{InfAlwaysRE, topo.PolicyPreferRE, VerdictCorrect},
		{InfAlwaysRE, topo.PolicyDefaultOnly, VerdictCorrect},
		{InfAlwaysRE, topo.PolicyEqual, VerdictIndistinguishable},
		{InfAlwaysRE, topo.PolicyPreferCommodity, VerdictWrong},
		{InfAlwaysCommodity, topo.PolicyPreferCommodity, VerdictCorrect},
		{InfAlwaysCommodity, topo.PolicyEqual, VerdictIndistinguishable},
		{InfAlwaysCommodity, topo.PolicyPreferRE, VerdictWrong},
		{InfSwitchToRE, topo.PolicyEqual, VerdictCorrect},
		{InfSwitchToRE, topo.PolicyPreferRE, VerdictWrong},
	}
	for _, tt := range tests {
		if got := grade(tt.inf, tt.pol); got != tt.want {
			t.Errorf("grade(%v, %v) = %v, want %v", tt.inf, tt.pol, got, tt.want)
		}
	}
	for _, v := range []Verdict{VerdictCorrect, VerdictIndistinguishable, VerdictWrong} {
		if v.String() == "" {
			t.Errorf("verdict %d empty string", v)
		}
	}
}

func TestValidationTableAndAccuracy(t *testing.T) {
	v := &Validation{ByVerdict: map[Verdict]int{
		VerdictCorrect:           9,
		VerdictIndistinguishable: 5,
		VerdictWrong:             1,
	}, Evaluated: 15}
	if got := v.Accuracy(); got != 0.9 {
		t.Errorf("Accuracy = %f, want 0.9 (indistinguishable excluded)", got)
	}
	empty := &Validation{ByVerdict: map[Verdict]int{}}
	if empty.Accuracy() != 1 {
		t.Error("empty validation should count as accurate")
	}
	if !strings.Contains(v.Table().String(), "correct") {
		t.Error("table missing verdicts")
	}
}

func TestCongruenceViewLogic(t *testing.T) {
	re, comm := uint32(11537), uint32(396955)
	mk := func(finals uint32, seen ...uint32) *PeerView {
		pv := &PeerView{OriginsSeen: map[uint32]bool{}, FinalOrigin: finals}
		for _, s := range seen {
			pv.OriginsSeen[s] = true
		}
		return pv
	}
	tests := []struct {
		view *PeerView
		inf  Inference
		want bool
	}{
		{mk(re, re), InfAlwaysRE, true},
		{mk(comm, comm), InfAlwaysRE, false},   // VRF split
		{mk(re, re, comm), InfAlwaysRE, false}, // saw both
		{mk(comm, comm), InfAlwaysCommodity, true},
		{mk(re, re, comm), InfSwitchToRE, true},
		{mk(comm, re, comm), InfSwitchToRE, false}, // ended on commodity
		{mk(re, re), InfSwitchToRE, false},         // never saw commodity
		{nil, InfAlwaysRE, false},
	}
	for i, tt := range tests {
		if got := viewCongruent(tt.view, tt.inf, re, comm); got != tt.want {
			t.Errorf("case %d: viewCongruent = %v, want %v", i, got, tt.want)
		}
	}
}

func TestMixedRatioEmpty(t *testing.T) {
	res := &Result{}
	re, comm := MixedRatio(res)
	if re != 0 || comm != 0 {
		t.Error("empty result should have zero ratio")
	}
}

func TestMultiCategoryASes(t *testing.T) {
	s := getSurvey(t)
	sum := Summarize(s.Eco, s.Internet2)
	if sum.MultiCategoryASes == 0 {
		t.Error("expected some multi-category ASes (Table 1's >100% note)")
	}
	// Consistency: per-category AS counts exceed distinct ASes by at
	// least the multi-category count.
	sumCats := 0
	for _, set := range sum.ASSet {
		sumCats += len(set)
	}
	if sumCats < sum.TotalASes+sum.MultiCategoryASes {
		t.Errorf("category sum %d inconsistent with %d ASes / %d multi",
			sumCats, sum.TotalASes, sum.MultiCategoryASes)
	}
}

func TestBreakdownByProvider(t *testing.T) {
	s := getSurvey(t)
	rows := BreakdownByProvider(s.Eco, s.Internet2)
	if len(rows) < 10 {
		t.Fatalf("only %d provider rows", len(rows))
	}
	// Sorted descending by volume.
	for i := 1; i < len(rows); i++ {
		if rows[i].Total() > rows[i-1].Total() {
			t.Fatalf("rows unsorted at %d", i)
		}
	}
	// NIKS appears and its members all switch (June experiment).
	foundNIKS := false
	for _, r := range rows {
		if r.Provider == s.Eco.NIKS.AS {
			foundNIKS = true
			if r.SwitchRE == 0 || r.AlwaysRE != 0 {
				t.Errorf("NIKS members should all switch in June: %+v", r)
			}
		}
		if r.Total() == 0 {
			t.Errorf("empty row %+v", r)
		}
	}
	if !foundNIKS {
		t.Error("NIKS missing from breakdown")
	}
	if len(ProviderBreakdownTable(rows, 5).Rows) != 5 {
		t.Error("table truncation wrong")
	}
}
