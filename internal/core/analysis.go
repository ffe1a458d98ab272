package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/asn"
	"repro/internal/asrel"
	"repro/internal/bgp"
	"repro/internal/irr"
	"repro/internal/netutil"
	"repro/internal/report"
	"repro/internal/topo"
)

// Analysis is the paper's evaluation of one finished survey: Tables
// 1–4 and Figures 3, 5, 7 and 8, with the ground-truth scores,
// baselines and design ablations the reproduction adds. Analyze
// computes it; WriteText renders it.
type Analysis struct {
	SURF, Internet2         ExperimentAnalysis
	Providers               []ProviderBreakdownRow
	MixedRE, MixedCommodity int               // Internet2 mixed-prefix responses per return path
	Comparison              *Comparison       // Table 2
	Congruence              *CongruenceResult // Table 3
	LookingGlass            *LGValidation
	Prepending              *PrependAnalysis // Table 4
	Predictors              *PredictionEval
	RIPE                    *RIPEAnalysis // Figure 5
	SwitchModel             *SwitchModelEval
	Switched                []netutil.Prefix // switched to R&E in both experiments
	Latency                 []LatencyStats
	RoundsAblation          []RoundsAblationRow
	TargetsAblation         []TargetsAblationRow
	GapAblation             []GapAblationRow
	// RelAccuracy scores Gao-style relationship inference over RelEdges
	// adjacent edges of RelPaths collector paths.
	RelAccuracy        float64
	RelEdges, RelPaths int
	IRR                irr.ConformanceStats
}

// ExperimentAnalysis is the part of an Analysis computed per experiment.
type ExperimentAnalysis struct {
	Summary    *SurveySummary // Table 1
	Validation *Validation
	Churn      *ChurnTimeline // Figure 3
	SwitchCDF  *SwitchCDF     // Figure 8
}

// Analyze runs the paper's analysis pass over a survey whose
// experiments have run, under an "analysis" span on s.Metrics with the
// origin-view solve nested as "origin-views". It fails when the
// generated IRR registry does not cover the measurement prefix, which
// would make the IRR baselines meaningless.
func Analyze(s *Survey) (*Analysis, error) {
	span := s.Metrics.StartSpan("analysis")
	eco := s.Eco
	a := &Analysis{}
	a.SURF.Summary = Summarize(eco, s.SURF)
	a.Internet2.Summary = Summarize(eco, s.Internet2)
	a.Providers = BreakdownByProvider(eco, s.Internet2)
	a.MixedRE, a.MixedCommodity = MixedRatio(s.Internet2)
	a.Comparison = Compare(eco, s.SURF, s.Internet2)
	a.Congruence = Congruence(eco, s.Internet2, 11537, 396955)
	a.LookingGlass = ValidateAgainstLookingGlasses(eco, s.Internet2, 11537, 15)
	a.SURF.Validation = Validate(eco, s.SURF)
	a.Internet2.Validation = Validate(eco, s.Internet2)

	viewsSpan := s.Metrics.StartSpan("origin-views")
	views := ComputeOriginViews(eco)
	viewsSpan.End()
	a.Prepending = AnalyzePrepending(eco, s.Internet2, views)

	// The implication (§1, §4.2): what inferred preferences buy over
	// Gao-Rexford, prepend-signal and IRR-documentation baselines.
	docs := irr.FromEcosystem(eco, irr.DefaultGenConfig())
	a.Predictors = EvaluatePredictors(eco, s.SURF, s.Internet2, views, docs)
	a.RIPE = AnalyzeRIPE(eco, views, BuildGeoDB(eco))

	a.SURF.Churn = BuildChurnTimeline(s.SURF, 1125)
	a.Internet2.Churn = BuildChurnTimeline(s.Internet2, 11537)
	// Figure 7's empirical closure: the FSM seeded with actual path
	// lengths predicts the observed switch rounds.
	a.SwitchModel = EvaluateSwitchModel(eco, s.Internet2)
	a.Switched = SwitchPrefixes(s.SURF, s.Internet2)
	a.SURF.SwitchCDF = BuildSwitchCDF(eco, s.SURF, a.Switched)
	a.Internet2.SwitchCDF = BuildSwitchCDF(eco, s.Internet2, a.Switched)
	// §1's performance implication: the latency cost of commodity
	// detours at the commodity-favoured end of the schedule.
	a.Latency = AnalyzeLatency(s.Internet2)

	// Design ablations; the pacing one runs at reduced scale so it stays
	// cheap.
	a.RoundsAblation = AblateRounds(s.Internet2, StandardSubsets())
	a.TargetsAblation = AblateTargets(s.Internet2, []int{1, 2, 3})
	a.GapAblation = AblateRoundGap([]int{600, 1800, 3600}, SmallSurveyOptions())

	a.RelAccuracy, a.RelEdges, a.RelPaths = RelationshipAccuracy(eco, views)

	// IRR documented-vs-deployed policy (the §2.2 lineage: Wang & Gao
	// 2003, Kastanakis et al. 2023).
	a.IRR = irr.CompareDocumented(eco, docs)
	if !docs.CoversOrigin(eco.MeasPrefix, 11537) || !docs.CoversOrigin(eco.MeasPrefix, 396955) {
		return nil, fmt.Errorf("measurement prefix not covered by IRR route objects")
	}
	span.End()
	return a, nil
}

// WriteText prints the analysis as resurvey's report, from Table 1
// through the IRR conformance line.
func (a *Analysis) WriteText(w io.Writer) {
	exps := []*ExperimentAnalysis{&a.SURF, &a.Internet2}
	fmt.Fprintln(w, a.SURF.Summary.Table())
	fmt.Fprintln(w, a.Internet2.Summary.Table())
	fmt.Fprintf(w, "ASes in multiple Table 1 categories: %d (SURF), %d (Internet2) — why the AS columns exceed 100%%\n\n",
		a.SURF.Summary.MultiCategoryASes, a.Internet2.Summary.MultiCategoryASes)
	fmt.Fprintln(w, ProviderBreakdownTable(a.Providers, 10))
	if a.MixedCommodity > 0 {
		fmt.Fprintf(w, "mixed-prefix response ratio R&E:commodity = %d:%d (~%.1f:1; paper ~2:1)\n\n",
			a.MixedRE, a.MixedCommodity, float64(a.MixedRE)/float64(a.MixedCommodity))
	}

	fmt.Fprintln(w, a.Comparison.Table())
	fmt.Fprintf(w, "differences attributable to NIKS-style transit: %d of %d\n\n", a.Comparison.DifferencesViaNIKS, a.Comparison.Different)
	fmt.Fprintln(w, a.Congruence.Table())
	fmt.Fprintf(w, "incongruent ASes explained by VRF-split exports: %d\n\n", a.Congruence.VRFExplained)

	lgv := a.LookingGlass
	fmt.Fprintf(w, "looking-glass corroboration: %d agree, %d disagree, %d indeterminate (of %d glasses sampled)\n",
		lgv.Agreements, lgv.Disagreements, lgv.Indeterminate, len(lgv.Rows))
	for _, e := range exps {
		fmt.Fprintf(w, "%s — inference vs installed policy: accuracy %.1f%% over %d prefixes\n",
			e.Summary.Name, 100*e.Validation.Accuracy(), e.Validation.Evaluated)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "solving converged member-prefix routing for collector and RIPE views...")
	fmt.Fprintln(w, a.Prepending.Table())
	fmt.Fprintln(w, a.Predictors.Table())
	ra := a.RIPE
	fmt.Fprintf(w, "RIPE (equal localpref) reached %s of R&E prefixes and %s of ASes over R&E routes (paper: 64.0%% / 63.9%%)\n",
		report.Pct(ra.PrefixesViaRE, ra.Prefixes), report.Pct(ra.ASesViaRE, ra.ASes))
	eu, us := ra.Series()
	fmt.Fprintln(w, eu)
	fmt.Fprintln(w, us)
	fmt.Fprintln(w)

	fmt.Fprintln(w, a.SURF.Churn)
	fmt.Fprintln(w, a.Internet2.Churn)
	fmt.Fprintln(w, Figure7Table())
	sm := a.SwitchModel
	fmt.Fprintf(w, "Appendix A model vs data: %.1f%% of %d switch timings predicted exactly (%d off-by-one, %d other)\n\n",
		100*sm.ExactRate(), sm.Total(), sm.OffByOne, sm.Other)
	fmt.Fprintf(w, "Figure 8: %d prefixes switched to R&E in both experiments\n", len(a.Switched))
	for _, e := range exps {
		p, n := e.SwitchCDF.Series()
		fmt.Fprintln(w, p)
		fmt.Fprintln(w, n)
	}
	if lat := a.Latency; len(lat) > 0 && lat[0].NCommodity > 0 && lat[0].NRE > 0 {
		fmt.Fprintf(w, "latency at config %s: median R&E %.1f ms vs commodity %.1f ms (detour penalty %.1f ms, synthetic per-hop RTTs)\n\n",
			lat[0].Config, lat[0].MedianRE, lat[0].MedianCommodity, lat[0].DetourPenalty())
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, RoundsAblationTable(a.RoundsAblation))
	fmt.Fprintln(w, TargetsAblationTable(a.TargetsAblation))
	fmt.Fprintln(w, GapAblationTable(a.GapAblation))
	fmt.Fprintf(w, "AS-relationship inference (Gao-style) from collector paths: %.1f%% of %d adjacent edges correct (%d paths)\n",
		100*a.RelAccuracy, a.RelEdges, a.RelPaths)
	fmt.Fprintf(w, "IRR aut-num conformance with deployed policy: %.1f%% of %d documented members (%d undocumented; literature ~83%%)\n",
		100*a.IRR.ConformanceRate(), a.IRR.Documented, a.IRR.Undocumented)
}

// OriginASes counts the distinct R&E-connected origin ASes (the
// paper's 2,653 figure), not the whole simulated world.
func (s *Survey) OriginASes() int {
	set := map[asn.AS]bool{}
	for _, pi := range s.Eco.Prefixes {
		set[pi.Origin] = true
	}
	return len(set)
}

// RelationshipAccuracy runs Gao-style relationship inference over the
// collector-observed paths of every origin, read in origin order one
// path at a time, and scores it against the generator's session
// classes.
func RelationshipAccuracy(eco *topo.Ecosystem, views map[asn.AS]*OriginView) (acc float64, evaluated, nPaths int) {
	origins := make([]asn.AS, 0, len(views))
	for origin := range views {
		origins = append(origins, origin)
		nPaths += views[origin].CollectorPaths.Len()
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	paths := func(yield func(asn.Path) bool) {
		var buf asn.Path
		for _, origin := range origins {
			t := &views[origin].CollectorPaths
			for i := 0; i < t.Len(); i++ {
				if buf = t.AppendPath(buf[:0], i); !yield(buf) {
					return
				}
			}
		}
	}
	correct := 0
	for _, ie := range asrel.Infer(paths).Edges() {
		a, b := eco.AS(ie.A), eco.AS(ie.B)
		if a == nil || b == nil {
			continue
		}
		pcAtA := eco.Net.Speaker(a.Router).Peer(b.Router)
		if pcAtA == nil {
			continue
		}
		var truth asrel.Rel
		switch pcAtA.ClassifyAs {
		case bgp.ClassCustomer:
			truth = asrel.RelProviderOf
		case bgp.ClassProvider:
			truth = asrel.RelCustomerOf
		case bgp.ClassPeer, bgp.ClassREPeer:
			truth = asrel.RelPeer
		default:
			continue
		}
		evaluated++
		if ie.Rel == truth {
			correct++
		}
	}
	if evaluated > 0 {
		acc = float64(correct) / float64(evaluated)
	}
	return acc, evaluated, nPaths
}
