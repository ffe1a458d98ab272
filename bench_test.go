package repro

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its artifact from the shared simulated survey
// and prints it once (-v shows the output), so `go test -bench=.`
// doubles as the reproduction harness.
//
// The shared survey runs at the reduced scale so benchmark iteration
// stays fast; `cmd/resurvey` produces the same artifacts at the
// paper's full scale.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/irr"
	"repro/internal/topo"
)

var (
	benchOnce   sync.Once
	benchSurvey *core.Survey
	benchViews  map[asn.AS]*core.OriginView
)

func benchSetup(b *testing.B) (*core.Survey, map[asn.AS]*core.OriginView) {
	b.Helper()
	benchOnce.Do(func() {
		s := core.NewSurvey(core.SmallSurveyOptions())
		s.RunBoth()
		benchSurvey = s
		benchViews = core.ComputeOriginViews(s.Eco)
	})
	return benchSurvey, benchViews
}

// BenchmarkTable1Inference regenerates Table 1: per-prefix route
// preference categories for both experiments.
func BenchmarkTable1Inference(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Summarize(s.Eco, s.SURF)
		_ = core.Summarize(s.Eco, s.Internet2)
	}
	b.StopTimer()
	b.Logf("\n%s\n%s", core.Summarize(s.Eco, s.SURF).Table(), core.Summarize(s.Eco, s.Internet2).Table())
}

// BenchmarkTable2Comparison regenerates Table 2: cross-experiment
// prefix-level agreement.
func BenchmarkTable2Comparison(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	var cmp *core.Comparison
	for i := 0; i < b.N; i++ {
		cmp = core.Compare(s.Eco, s.SURF, s.Internet2)
	}
	b.StopTimer()
	b.Logf("\n%s\nNIKS-attributable differences: %d of %d", cmp.Table(), cmp.DifferencesViaNIKS, cmp.Different)
}

// BenchmarkTable3Congruence regenerates Table 3: inference vs public
// BGP view congruence.
func BenchmarkTable3Congruence(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	var cong *core.CongruenceResult
	for i := 0; i < b.N; i++ {
		cong = core.Congruence(s.Eco, s.Internet2, 11537, 396955)
	}
	b.StopTimer()
	b.Logf("\n%s\nVRF-split explanations: %d", cong.Table(), cong.VRFExplained)
}

// BenchmarkTable4Prepending regenerates Table 4: inference vs relative
// origin prepending. The origin views (the expensive converged-routing
// solve) are computed once in setup; the benchmark measures the
// table-building pass.
func BenchmarkTable4Prepending(b *testing.B) {
	s, views := benchSetup(b)
	b.ResetTimer()
	var pa *core.PrependAnalysis
	for i := 0; i < b.N; i++ {
		pa = core.AnalyzePrepending(s.Eco, s.Internet2, views)
	}
	b.StopTimer()
	b.Logf("\n%s", pa.Table())
}

// BenchmarkFigure3Churn regenerates Figure 3: the measurement-prefix
// update timeline at public collectors across the nine configurations.
func BenchmarkFigure3Churn(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	var tl *core.ChurnTimeline
	for i := 0; i < b.N; i++ {
		tl = core.BuildChurnTimeline(s.Internet2, 11537)
	}
	b.StopTimer()
	b.Logf("\n%s", tl)
	surf := core.BuildChurnTimeline(s.SURF, 1125)
	b.Logf("\n%s", surf)
}

// BenchmarkFigure5Geography regenerates Figure 5: the share of ASes
// per region that RIPE (equal localpref) reaches over R&E routes.
func BenchmarkFigure5Geography(b *testing.B) {
	s, views := benchSetup(b)
	db := core.BuildGeoDB(s.Eco)
	b.ResetTimer()
	var ra *core.RIPEAnalysis
	for i := 0; i < b.N; i++ {
		ra = core.AnalyzeRIPE(s.Eco, views, db)
	}
	b.StopTimer()
	eu, us := ra.Series()
	b.Logf("\nRIPE via R&E: %d/%d prefixes, %d/%d ASes\n%s\n%s",
		ra.PrefixesViaRE, ra.Prefixes, ra.ASesViaRE, ra.ASes, eu, us)
}

// BenchmarkFigure7AgeFSM regenerates Figure 7: the state diagrams for
// the interplay of AS path length and route age under the experiment
// schedule.
func BenchmarkFigure7AgeFSM(b *testing.B) {
	cases := core.Figure7Cases()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			_ = core.SimulateAgeFSM(c)
		}
	}
	b.StopTimer()
	b.Logf("\n%s", core.Figure7Table())
}

// BenchmarkFigure8SwitchCDF regenerates Figure 8: CDFs of the
// configuration at which Participant vs Peer-NREN ASes switched to the
// R&E route.
func BenchmarkFigure8SwitchCDF(b *testing.B) {
	s, _ := benchSetup(b)
	sw := core.SwitchPrefixes(s.SURF, s.Internet2)
	b.ResetTimer()
	var surf, june *core.SwitchCDF
	for i := 0; i < b.N; i++ {
		surf = core.BuildSwitchCDF(s.Eco, s.SURF, sw)
		june = core.BuildSwitchCDF(s.Eco, s.Internet2, sw)
	}
	b.StopTimer()
	for _, cdf := range []*core.SwitchCDF{surf, june} {
		p, n := cdf.Series()
		b.Logf("\n%s\n%s", p, n)
	}
}

// BenchmarkPredictionModels regenerates the implication analysis: the
// accuracy of Gao-Rexford, prepend-signal, and inferred-localpref
// route predictors against observed per-round return routes.
func BenchmarkPredictionModels(b *testing.B) {
	s, views := benchSetup(b)
	b.ResetTimer()
	var pe *core.PredictionEval
	for i := 0; i < b.N; i++ {
		pe = core.EvaluatePredictors(s.Eco, s.SURF, s.Internet2, views, irr.FromEcosystem(s.Eco, irr.DefaultGenConfig()))
	}
	b.StopTimer()
	b.Logf("\n%s", pe.Table())
}

// BenchmarkAblations regenerates the schedule-subset and target-budget
// ablations of the experiment design.
func BenchmarkAblations(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	var rr []core.RoundsAblationRow
	var tr []core.TargetsAblationRow
	for i := 0; i < b.N; i++ {
		rr = core.AblateRounds(s.Internet2, core.StandardSubsets())
		tr = core.AblateTargets(s.Internet2, []int{1, 2, 3})
	}
	b.StopTimer()
	gaps := core.AblateRoundGap([]int{600, 1800, 3600}, core.SmallSurveyOptions())
	b.Logf("\n%s\n%s\n%s", core.RoundsAblationTable(rr), core.TargetsAblationTable(tr), core.GapAblationTable(gaps))
}

// BenchmarkSeedRobustness reruns the survey across generator seeds and
// reports the spread of the Table 1 fractions.
func BenchmarkSeedRobustness(b *testing.B) {
	var m *core.MultiSeedResult
	for i := 0; i < b.N; i++ {
		m = core.RunMultiSeed(core.SmallSurveyOptions(), []int64{1, 2, 3})
	}
	b.StopTimer()
	b.Logf("\n%s", m.Table())
}

// BenchmarkFullExperiment measures one complete experiment run
// (announce, nine configurations, probing, classification) on a fresh
// world — the end-to-end cost of the method.
func BenchmarkFullExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := core.NewSurvey(core.SmallSurveyOptions())
		b.StartTimer()
		x := core.NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, 9*3600)
		_ = x.Run()
	}
}

// BenchmarkIncrementalSweep measures the nine-config sweep on the
// engine. The decision-evals/op metric counts full decision-process
// evaluations — the work the dirty-set propagation and the
// single-comparison fast path exist to avoid; the tests' full-scan
// reference does at least 5x more (TestIncrementalEvalReduction).
func BenchmarkIncrementalSweep(b *testing.B) {
	var evals int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := core.NewSurvey(core.SmallSurveyOptions())
		b.StartTimer()
		x := core.NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, 9*3600)
		_ = x.Run()
		evals += s.Eco.Net.Stats().FullScans
	}
	b.ReportMetric(float64(evals)/float64(b.N), "decision-evals/op")
}

// paperQuarter is the paper's grammar with its populations divided by
// four: the size of the benchmark's survey_paper and sweep_warm worlds.
func paperQuarter() topo.GenConfig {
	c := topo.DefaultConfig()
	c.MembersUS /= 4
	c.MembersIntl /= 4
	c.NIKSCustomers /= 4
	c.ExtraCollectorFeeds /= 4
	return c
}

// BenchmarkNewSurvey measures building one survey world at the
// paper's grammar with its populations divided by four: the topology
// and its sessions, the responsive hosts, the seed catalog and the
// target selection. The sweeps and the optimizer build one per world.
func BenchmarkNewSurvey(b *testing.B) {
	opts := core.DefaultSurveyOptions()
	opts.Topology = paperQuarter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.NewSurvey(opts)
	}
}

// BenchmarkProbeRound measures one probe round, Prober.Run over every
// selected target, on a world at the paper's grammar with its
// populations divided by four (survey_paper's size), built and
// converged once with the SURF experiment's first announcement and
// both response terminals armed. Run with the default worker count, as
// the experiments probe.
func BenchmarkProbeRound(b *testing.B) {
	opts := core.DefaultSurveyOptions()
	opts.Topology = paperQuarter()
	s := core.NewSurvey(opts)
	core.NewSURFExperiment(s.Eco, s.World, s.Prober, s.Sel, 9*3600).Converge()
	s.World.SetTerminals(s.Eco.MeasSURF.Router, s.Eco.MeasCommodity.Router)
	at := s.Eco.Net.Now()
	if round := s.Prober.Run("bench", at, s.Sel); round.Responded() < round.Len()/2 {
		b.Fatalf("only %d of %d probes answered", round.Responded(), round.Len())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Prober.Run("bench", at, s.Sel)
	}
}

// BenchmarkOriginViews measures the converged-routing solve behind
// Tables 3-4 and Figure 5 (one static solution per origin AS), on the
// shared survey's world and on the paper's grammar with its
// populations divided by four (survey_paper's size, 656 origins).
func BenchmarkOriginViews(b *testing.B) {
	for _, scale := range []struct {
		name  string
		build func() *topo.Ecosystem
	}{
		{"small", func() *topo.Ecosystem { s, _ := benchSetup(b); return s.Eco }},
		{"paper÷4", func() *topo.Ecosystem { return topo.Build(paperQuarter()) }},
	} {
		b.Run(scale.name, func(b *testing.B) {
			eco := scale.build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = core.ComputeOriginViews(eco)
			}
		})
	}
}

// BenchmarkRelationshipInference measures the Gao-style relationship
// inference behind the analysis's accuracy line
// (core.RelationshipAccuracy): every collector path of every origin
// view, read twice from the views' trees, on the paper's grammar with
// its populations divided by four (survey_paper's size, 109,294 paths),
// the views computed once.
func BenchmarkRelationshipInference(b *testing.B) {
	eco := topo.Build(paperQuarter())
	views := core.ComputeOriginViews(eco)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, evaluated, _ := core.RelationshipAccuracy(eco, views); evaluated == 0 {
			b.Fatal("no edge evaluated")
		}
	}
}

// BenchmarkAblateTargets measures the §3.2 target-budget ablation
// (AblateTargets at budgets 1-3: one Observe and one classification
// pass per budget) on the Internet2 result of a survey at the paper's
// grammar with its populations divided by four (survey_paper's size),
// run once.
func BenchmarkAblateTargets(b *testing.B) {
	opts := core.DefaultSurveyOptions()
	opts.Topology = paperQuarter()
	s := core.NewSurvey(opts)
	s.RunBoth()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.AblateTargets(s.Internet2, []int{1, 2, 3})
	}
}

// BenchmarkFaultSweep measures the robustness harness: a full
// three-point fault-intensity sweep, each point rebuilding the world,
// injecting its seeded schedule, and scoring the inference against
// generator ground truth.
func BenchmarkFaultSweep(b *testing.B) {
	opts := core.DefaultFaultSweepOptions()
	opts.Intensities = []float64{0, 0.5, 1}
	var pts []core.FaultSweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		if pts, err = core.RunFaultSweepContext(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("\n%s", core.FaultSweepTable(pts))
}

// BenchmarkParallelSweep measures the sharded fault-intensity sweep at
// increasing worker counts. The sweep points are independent
// world-rebuild-and-score runs (four intensities here); the
// deterministic merge keeps the output identical at every width.
func BenchmarkParallelSweep(b *testing.B) {
	intensities := core.SweepIntensities(0.5)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := core.DefaultFaultSweepOptions()
			opts.Intensities = intensities
			opts.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := core.RunFaultSweepContext(context.Background(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestoreNetwork measures checkpoint/resume's engine restore:
// the snapshot of a converged world at a quarter of the paper's
// populations (the benchmark's sweep_warm size, default row layout)
// restored into the network it was taken from. (The optimizer rewinds
// candidates with the undo journal, not with a restore.) Run with
// -benchmem.
func BenchmarkRestoreNetwork(b *testing.B) {
	opts := core.DefaultSurveyOptions()
	opts.Topology = paperQuarter()
	s := core.NewSurvey(opts)
	core.NewSURFExperiment(s.Eco, s.World, s.Prober, s.Sel, 9*3600).Converge()
	var buf bytes.Buffer
	if err := s.Eco.Net.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bgp.RestoreNetwork(bytes.NewReader(buf.Bytes()), s.Eco.Net); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArenaSnapshotRoundTrip measures the arena store's
// checkpoint/resume engine path at rib_scale's size: the internet tier
// with its populations divided by 40, converged, plus the full-table
// vantage feed that speaker announces to the first collector (the
// collector then holds one multi-hop path per origin). "snapshot"
// encodes the network into a reused buffer; "restore" loads that
// snapshot back into the network it was taken from. Run with
// -benchmem.
func BenchmarkArenaSnapshotRoundTrip(b *testing.B) {
	cfg := topo.InternetConfig()
	cfg.MembersUS /= 40
	cfg.MembersIntl /= 40
	cfg.NIKSCustomers /= 40
	cfg.ExtraCollectorFeeds /= 40
	e := topo.Build(cfg)
	e.Net.RunToQuiescence()
	const feedID = bgp.RouterID(9_000_000)
	e.Net.AddSpeaker(feedID, asn.AS(64999), "vantage-feed")
	e.Net.Connect(feedID, e.Collectors[0],
		bgp.PeerConfig{
			ClassifyAs: bgp.ClassPeer,
			ExportAllow: bgp.NewClassSet(bgp.ClassOwn, bgp.ClassCustomer,
				bgp.ClassPeer, bgp.ClassProvider, bgp.ClassREPeer),
		},
		bgp.PeerConfig{ClassifyAs: bgp.ClassPeer, ExportAllow: bgp.NewClassSet()},
	)
	for _, pi := range e.Prefixes {
		up := pi.Origin
		if info := e.AS(pi.Origin); len(info.REProviders) > 0 {
			up = info.REProviders[0]
		} else if len(info.CommodityProviders) > 0 {
			up = info.CommodityProviders[0]
		}
		e.Net.OriginateWith(feedID, pi.Prefix, bgp.OriginateOpts{Poison: []asn.AS{e.Lumen.AS, up, pi.Origin}})
	}
	e.Net.RunToQuiescence()
	var buf bytes.Buffer
	if err := e.Net.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())

	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := e.Net.Snapshot(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := bgp.RestoreNetwork(bytes.NewReader(data), e.Net); err != nil {
				b.Fatal(err)
			}
		}
	})
}
