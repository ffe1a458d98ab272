// Command resurvey runs the full reproduction of "R&E Routing Policy:
// Inference and Implication" (IMC 2025): it generates the synthetic
// R&E ecosystem, runs both measurement experiments (SURF-style and
// Internet2-style), and prints every table and figure of the paper's
// evaluation.
//
// Usage:
//
//	resurvey [-small] [-seed N] [-workers N] [-json dir] [-mrt dir]
//	         [-faults I] [-manifest out.json] [-metrics] [-pprof addr]
//	         [-snapshot-dir dir] [-resume]
//
// -small runs the reduced test-scale ecosystem; -json writes the
// scamper-style probe results per round; -mrt writes collector RIB
// and update dumps; -faults I (intensity in (0, 1]) additionally runs
// the fault-intensity sweep up to I and prints the
// accuracy-vs-intensity table; -workers N bounds the shard workers of
// the probing, classification, and fault-sweep loops (0 = GOMAXPROCS)
// — output is byte-identical for any value.
//
// Checkpoint/restart: -snapshot-dir writes an engine+telemetry
// checkpoint after every configuration round; -resume continues from
// the latest usable checkpoint there (falling back past corrupt files
// and files whose engine state belongs to another topology, such as a
// different -scale, and to a cold start when none is usable),
// reproducing the uninterrupted run's output byte for byte at any
// worker count.
//
// Workloads: -workload NAME runs a named virtual-clock workload
// (update-storm, flap-cascade-rfd, diurnal-churn, hijack-flash, or
// replay with -trace file.mrt) through the discrete-event engine
// instead of the survey script; -duration overrides its virtual horizon,
// -round selects the round-granularity compatibility scheduler, and
// -rov F deploys RPKI origin validation at that fraction first (what
// hijack-flash's forgeries run into). Workload output is deterministic
// and byte-identical at any -workers width.
//
// Scenarios: -scenario {hijack,leak} replaces the survey script with
// an adversarial scenario sweep — the schedule (a forged-origin hijack
// of the measurement prefix, or a Gao-Rexford-violating route leak) is
// injected mid-window at every RPKI ROV adoption point and the
// polluted/clean catchment is reported per adoption; -rov F caps the
// adoption ladder at F (0 keeps the full {0, 0.25, 0.5, 0.75, 1}
// ladder).
//
// Observability: -manifest snapshots the run (seed, options, version,
// phase durations, worker/shard timings, every metric) to
// deterministic JSON; -metrics prints a Prometheus-style text
// exposition at exit; -pprof serves net/http/pprof on the given
// address for live profiling.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/asn"
	"repro/internal/asrel"
	"repro/internal/bgp"
	"repro/internal/cliconf"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/irr"
	"repro/internal/netutil"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// options bundles every flag of one invocation: the shared pipeline
// flags (cliconf) plus resurvey's own artifact outputs.
type options struct {
	cliconf.Config
	JSONDir string
	MRTDir  string
	NSeeds  int
	Dataset string
	PProf   string
	Trace   string
}

func main() {
	o := options{Config: cliconf.Config{Seed: 1}}
	cliconf.Register(flag.CommandLine, &o.Config, cliconf.FlagAll|cliconf.FlagSnapshot|cliconf.FlagWorkload|cliconf.FlagScenario)
	flag.StringVar(&o.JSONDir, "json", "", "directory for scamper-style probe JSON")
	flag.StringVar(&o.MRTDir, "mrt", "", "directory for MRT collector dumps")
	flag.IntVar(&o.NSeeds, "seeds", 1, "additionally rerun the survey across N generator seeds (reduced scale) and report spread")
	flag.StringVar(&o.Dataset, "dataset", "", "write the gzip-compressed JSON dataset (the public-data-release analog) to this file")
	flag.StringVar(&o.PProf, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
	flag.StringVar(&o.Trace, "trace", "", "MRT update file for '-workload replay' (as written by -mrt)")
	flag.Parse()

	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "resurvey:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "resurvey:", err)
		os.Exit(1)
	}
}

// validate rejects flag combinations the pipeline cannot honour.
func (o options) validate() error {
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.NSeeds < 1 {
		return fmt.Errorf("-seeds %d out of range: want >= 1", o.NSeeds)
	}
	if o.Workload != "" {
		if o.SnapshotDir != "" || o.Resume {
			return fmt.Errorf("-workload does not support -snapshot-dir/-resume")
		}
		if o.Faults > 0 || o.NSeeds > 1 || o.JSONDir != "" || o.MRTDir != "" || o.Dataset != "" {
			return fmt.Errorf("-workload replaces the survey script; drop -faults/-seeds/-json/-mrt/-dataset")
		}
		if o.Workload == "replay" && o.Trace == "" {
			return fmt.Errorf("-workload replay requires -trace")
		}
	}
	if o.Trace != "" && o.Workload != "replay" {
		return fmt.Errorf("-trace requires -workload replay")
	}
	if o.Scenario != "" {
		if o.SnapshotDir != "" || o.Resume {
			return fmt.Errorf("-scenario does not support -snapshot-dir/-resume")
		}
		if o.Faults > 0 || o.NSeeds > 1 || o.JSONDir != "" || o.MRTDir != "" || o.Dataset != "" {
			return fmt.Errorf("-scenario replaces the survey script; drop -faults/-seeds/-json/-mrt/-dataset")
		}
	}
	return nil
}

// manifestOptions is the run configuration recorded in the manifest.
type manifestOptions struct {
	Small  bool               `json:"small"`
	Faults float64            `json:"faults"`
	NSeeds int                `json:"n_seeds"`
	Survey core.SurveyOptions `json:"survey"`
}

func run(w io.Writer, o options) error {
	// Telemetry is opt-in: without -manifest or -metrics the registry
	// stays nil and every instrumented path is a no-op.
	reg := o.NewRegistry()
	if o.PProf != "" {
		go func() {
			if err := http.ListenAndServe(o.PProf, nil); err != nil {
				fmt.Fprintln(os.Stderr, "resurvey: pprof:", err)
			}
		}()
		fmt.Fprintf(w, "pprof listening on http://%s/debug/pprof/\n", o.PProf)
	}

	if o.Workload != "" {
		return runWorkload(w, o, reg)
	}
	if o.Scenario != "" {
		return runScenario(w, o, reg)
	}

	pl := o.Pipeline(reg)
	opts := pl.SurveyOptions()

	// The world is built before a checkpoint is chosen, because choosing
	// one means restoring its engine section into this network — the
	// only check that the checkpoint belongs to this topology. The
	// build span is held aside and joins the registry only on a cold
	// start: a checkpoint's telemetry already carries the original
	// run's, and re-recording it would duplicate the span.
	buildReg := o.NewRegistry()
	buildSpan := buildReg.StartSpan("build")
	fmt.Fprintf(w, "building ecosystem (seed %d)...\n", o.Seed)
	s := pl.NewSurvey()
	buildSpan.End()

	// Resume: the newest usable checkpoint's engine state is now in the
	// network; restore its telemetry state before any new span opens,
	// so the resumed run's phase tree and metrics continue exactly where
	// the saved run left off. Unusable checkpoints were skipped in
	// favour of older ones and are surfaced via
	// snapshot_checkpoint_corrupt_total.
	var ck *core.Checkpoint
	if o.Resume {
		var corrupt int
		var err error
		ck, corrupt, err = core.LatestCheckpoint(o.SnapshotDir, fingerprintOf(o), s.Eco.Net, func(note string) {
			fmt.Fprintln(os.Stderr, "resurvey:", note)
		})
		if err != nil && !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "resurvey: resume:", err)
		}
		if corrupt > 0 {
			reg.Counter("snapshot_checkpoint_corrupt_total").Add(int64(corrupt))
		}
	}
	if ck == nil {
		reg.Merge(buildReg)
	} else {
		var openSpans []*telemetry.Span
		if reg != nil && len(ck.Telemetry) > 0 {
			var err error
			if openSpans, err = reg.LoadState(bytes.NewReader(ck.Telemetry)); err != nil {
				return fmt.Errorf("resume: restore telemetry state: %w", err)
			}
			// The saved state carries the saved run's worker count; the
			// manifest reports this run's.
			reg.SetWorkers(parallel.Workers(o.Workers))
		}
		s.Resume = ck.Resume(openSpans)
	}
	if o.SnapshotDir != "" {
		// Checkpoint I/O is deliberately invisible to telemetry and
		// stdout — a resumed run must reproduce the uninterrupted run's
		// bytes exactly — so failures only warn on stderr.
		s.Checkpoint = func(sck core.SurveyCheckpoint) {
			if err := core.WriteCheckpoint(o.SnapshotDir, fingerprintOf(o), sck, s.Eco.Net, reg); err != nil {
				fmt.Fprintln(os.Stderr, "resurvey: checkpoint:", err)
			}
		}
	}
	st := s.Sel.Stats
	fmt.Fprintf(w, "  %d R&E-connected origin ASes; %d prefixes announced, %d excluded as entirely covered (§3.2), %d probed\n",
		countASes(s), len(s.Eco.Prefixes), len(s.Eco.Prefixes)-st.Prefixes, st.Prefixes)
	fmt.Fprintf(w, "  %d with ISI seeds (%s), %d responsive (%s), %d with three targets (%s)\n\n",
		st.WithISISeed, report.Pct(st.WithISISeed, st.Prefixes),
		st.Responsive, report.Pct(st.Responsive, st.Prefixes),
		st.WithMaxTargets, report.Pct(st.WithMaxTargets, st.Responsive))

	fmt.Fprintln(w, "running SURF and Internet2 experiments...")
	s.RunBoth()
	fmt.Fprintln(w)

	analysisSpan := reg.StartSpan("analysis")

	// Table 1 for both experiments.
	surfSum := core.Summarize(s.Eco, s.SURF)
	juneSum := core.Summarize(s.Eco, s.Internet2)
	fmt.Fprintln(w, surfSum.Table())
	fmt.Fprintln(w, juneSum.Table())
	fmt.Fprintf(w, "ASes in multiple Table 1 categories: %d (SURF), %d (Internet2) — why the AS columns exceed 100%%\n\n",
		surfSum.MultiCategoryASes, juneSum.MultiCategoryASes)
	fmt.Fprintln(w, core.ProviderBreakdownTable(core.BreakdownByProvider(s.Eco, s.Internet2), 10))

	re, comm := core.MixedRatio(s.Internet2)
	if comm > 0 {
		fmt.Fprintf(w, "mixed-prefix response ratio R&E:commodity = %d:%d (~%.1f:1; paper ~2:1)\n\n", re, comm, float64(re)/float64(comm))
	}

	// Table 2.
	cmp := core.Compare(s.Eco, s.SURF, s.Internet2)
	fmt.Fprintln(w, cmp.Table())
	fmt.Fprintf(w, "differences attributable to NIKS-style transit: %d of %d\n\n", cmp.DifferencesViaNIKS, cmp.Different)

	// Table 3.
	cong := core.Congruence(s.Eco, s.Internet2, 11537, 396955)
	fmt.Fprintln(w, cong.Table())
	fmt.Fprintf(w, "incongruent ASes explained by VRF-split exports: %d\n\n", cong.VRFExplained)

	// Looking-glass corroboration (the §2.2/§4.1 channel).
	lgv := core.ValidateAgainstLookingGlasses(s.Eco, s.Internet2, 11537, 15)
	fmt.Fprintf(w, "looking-glass corroboration: %d agree, %d disagree, %d indeterminate (of %d glasses sampled)\n",
		lgv.Agreements, lgv.Disagreements, lgv.Indeterminate, len(lgv.Rows))

	// Ground truth (the §4.1.2 analogue).
	for _, res := range []*core.Result{s.SURF, s.Internet2} {
		v := core.Validate(s.Eco, res)
		fmt.Fprintf(w, "%s — inference vs installed policy: accuracy %.1f%% over %d prefixes\n",
			res.Name, 100*v.Accuracy(), v.Evaluated)
	}
	fmt.Fprintln(w)

	// Table 4 + Figure 5 share the origin views.
	fmt.Fprintln(w, "solving converged member-prefix routing for collector and RIPE views...")
	viewsSpan := reg.StartSpan("origin-views")
	views := core.ComputeOriginViews(s.Eco)
	viewsSpan.End()
	pa := core.AnalyzePrepending(s.Eco, s.Internet2, views)
	fmt.Fprintln(w, pa.Table())

	// The implication (§1, §4.2): what inferred preferences buy a
	// routing model over Gao-Rexford, prepend-signal, and
	// IRR-documentation baselines.
	reg2 := irr.FromEcosystem(s.Eco, irr.DefaultGenConfig())
	pe := core.EvaluatePredictors(s.Eco, s.SURF, s.Internet2, views, reg2)
	fmt.Fprintln(w, pe.Table())

	ra := core.AnalyzeRIPE(s.Eco, views, core.BuildGeoDB(s.Eco))
	fmt.Fprintf(w, "RIPE (equal localpref) reached %s of R&E prefixes and %s of ASes over R&E routes (paper: 64.0%% / 63.9%%)\n",
		report.Pct(ra.PrefixesViaRE, ra.Prefixes), report.Pct(ra.ASesViaRE, ra.ASes))
	eu, us := ra.Series()
	fmt.Fprintln(w, eu)
	fmt.Fprintln(w, us)
	fmt.Fprintln(w)

	// Figure 3.
	fmt.Fprintln(w, core.BuildChurnTimeline(s.SURF, 1125))
	fmt.Fprintln(w, core.BuildChurnTimeline(s.Internet2, 11537))

	// Figure 7 (and its empirical closure: the FSM seeded with actual
	// path lengths predicts the observed switch rounds).
	fmt.Fprintln(w, core.Figure7Table())
	sm := core.EvaluateSwitchModel(s.Eco, s.Internet2)
	fmt.Fprintf(w, "Appendix A model vs data: %.1f%% of %d switch timings predicted exactly (%d off-by-one, %d other)\n\n",
		100*sm.ExactRate(), sm.Total(), sm.OffByOne, sm.Other)

	// Figure 8.
	sw := core.SwitchPrefixes(s.SURF, s.Internet2)
	fmt.Fprintf(w, "Figure 8: %d prefixes switched to R&E in both experiments\n", len(sw))
	for _, res := range []*core.Result{s.SURF, s.Internet2} {
		cdf := core.BuildSwitchCDF(s.Eco, res, sw)
		p, n := cdf.Series()
		fmt.Fprintln(w, p)
		fmt.Fprintln(w, n)
	}

	// §1's performance implication: the latency cost of commodity
	// detours at the commodity-favoured end of the schedule.
	lat := core.AnalyzeLatency(s.Internet2)
	if len(lat) > 0 && lat[0].NCommodity > 0 && lat[0].NRE > 0 {
		fmt.Fprintf(w, "latency at config %s: median R&E %.1f ms vs commodity %.1f ms (detour penalty %.1f ms, synthetic per-hop RTTs)\n\n",
			lat[0].Config, lat[0].MedianRE, lat[0].MedianCommodity, lat[0].DetourPenalty())
	}

	// Design ablations: schedule subsets, target budgets, and the
	// pacing that keeps route-flap damping quiet (run at reduced scale
	// so it stays cheap).
	fmt.Fprintln(w)
	fmt.Fprintln(w, core.RoundsAblationTable(core.AblateRounds(s.Internet2, core.StandardSubsets())))
	fmt.Fprintln(w, core.TargetsAblationTable(core.AblateTargets(s.Internet2, []int{1, 2, 3})))
	fmt.Fprintln(w, core.GapAblationTable(core.AblateRoundGap([]int{600, 1800, 3600}, core.SmallSurveyOptions())))

	// What a third party recovers from the public views alone:
	// Gao-style relationship inference scored against the generator's
	// wiring (the modeling baseline the paper's method goes beyond).
	relAcc, relEdges, relPaths := relationshipAccuracy(s, views)
	fmt.Fprintf(w, "AS-relationship inference (Gao-style) from collector paths: %.1f%% of %d adjacent edges correct (%d paths)\n",
		100*relAcc, relEdges, relPaths)

	// IRR documented-vs-deployed policy (the §2.2 lineage: Wang & Gao
	// 2003, Kastanakis et al. 2023): how far registry documentation
	// gets a modeler compared with the data-plane inference above.
	irrStats := irr.CompareDocumented(s.Eco, reg2)
	fmt.Fprintf(w, "IRR aut-num conformance with deployed policy: %.1f%% of %d documented members (%d undocumented; literature ~83%%)\n",
		100*irrStats.ConformanceRate(), irrStats.Documented, irrStats.Undocumented)
	if !reg2.CoversOrigin(s.Eco.MeasPrefix, 11537) || !reg2.CoversOrigin(s.Eco.MeasPrefix, 396955) {
		return fmt.Errorf("measurement prefix not covered by IRR route objects")
	}
	analysisSpan.End()

	if o.Faults > 0 {
		// Robustness: how much fault intensity the inference tolerates
		// before Table 1's shape breaks, scored against generator ground
		// truth. Runs at reduced scale with fresh worlds per point; the
		// topology seed carries over so the sweep tracks the main run.
		fmt.Fprintln(w)
		fmt.Fprintf(w, "running fault-intensity sweep (reduced scale, up to %.2f)...\n", o.Faults)
		pts, err := pl.RunFaultSweepContext(context.Background())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, core.FaultSweepTable(pts))
	}

	if o.NSeeds > 1 {
		var seedList []int64
		for i := 0; i < o.NSeeds; i++ {
			seedList = append(seedList, o.Seed+int64(i))
		}
		fmt.Fprintln(w, core.RunMultiSeed(core.SmallSurveyOptions(), seedList).Table())
	}

	if o.JSONDir != "" {
		if err := writeJSON(s, o.JSONDir); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nprobe JSON written to %s\n", o.JSONDir)
	}
	if o.MRTDir != "" {
		if err := writeMRT(s, o.MRTDir); err != nil {
			return err
		}
		fmt.Fprintf(w, "MRT dumps written to %s\n", o.MRTDir)
	}
	if o.Dataset != "" {
		f, err := os.Create(o.Dataset)
		if err != nil {
			return err
		}
		if err := core.WriteDataset(f, core.BuildDataset(s)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "dataset written to %s\n", o.Dataset)
	}

	if o.Manifest != "" {
		if err := o.WriteManifest(reg, manifestOptions{
			Small:  o.Small,
			Faults: o.Faults,
			NSeeds: o.NSeeds,
			Survey: opts,
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "manifest written to %s\n", o.Manifest)
	}
	return o.DumpMetrics(w, reg)
}

// workloadManifestOptions is the run configuration recorded in a
// workload run's manifest.
type workloadManifestOptions struct {
	Small           bool               `json:"small"`
	Workload        string             `json:"workload"`
	DurationSeconds int64              `json:"duration_seconds"`
	RoundMode       bool               `json:"round_mode"`
	Survey          core.SurveyOptions `json:"survey"`
}

// runWorkload drives a named virtual-clock workload instead of the
// survey script. Everything printed (and the manifest under -zerotime)
// is deterministic; the wall-derived speedup figure appears only
// without -zerotime, so byte-stable comparisons stay clean.
func runWorkload(w io.Writer, o options, reg *telemetry.Registry) error {
	pl := o.Pipeline(reg)
	wopts := o.Job().WorkloadOptions()
	if o.Workload == "replay" {
		f, err := os.Open(o.Trace)
		if err != nil {
			return err
		}
		defer f.Close()
		wopts.Trace = f
	}

	fmt.Fprintf(w, "building ecosystem (seed %d)...\n", o.Seed)
	span := reg.StartSpan("workload")
	res, err := pl.RunWorkload(wopts)
	span.End()
	if err != nil {
		return err
	}
	core.WriteWorkloadReport(w, res)
	if !o.ZeroTime && res.SpeedupRatio > 0 {
		// Wall-derived, hence gated exactly like manifest durations.
		reg.Gauge("vtime_speedup_ratio").Set(res.SpeedupRatio)
		fmt.Fprintf(w, "  speedup: %.0fx virtual over wall\n", res.SpeedupRatio)
	}

	if o.Manifest != "" {
		if err := o.WriteManifest(reg, workloadManifestOptions{
			Small:           o.Small,
			Workload:        o.Workload,
			DurationSeconds: int64(res.Duration),
			RoundMode:       o.RoundMode,
			Survey:          pl.SurveyOptions(),
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "manifest written to %s\n", o.Manifest)
	}
	return o.DumpMetrics(w, reg)
}

// scenarioManifestOptions is the run configuration recorded in a
// scenario run's manifest.
type scenarioManifestOptions struct {
	Small    bool               `json:"small"`
	Scenario string             `json:"scenario"`
	ROV      float64            `json:"rov"`
	Survey   core.SurveyOptions `json:"survey"`
}

// runScenario drives the adversarial scenario sweep instead of the
// survey script: baseline plus one Internet2-style run per ROV
// adoption point, reported as the catchment-vs-adoption table. Output
// (and the manifest under -zerotime) is deterministic and
// byte-identical at any -workers width.
func runScenario(w io.Writer, o options, reg *telemetry.Registry) error {
	pl := o.Pipeline(reg)
	fmt.Fprintf(w, "building ecosystems (seed %d)...\n", o.Seed)
	fmt.Fprintf(w, "running %s scenario sweep over ROV adoption (reduced scale)...\n", o.Scenario)
	span := reg.StartSpan("scenario")
	pts, err := pl.RunScenarioSweepContext(context.Background())
	span.End()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, core.ScenarioSweepTable(o.Scenario, pts))

	if o.Manifest != "" {
		if err := o.WriteManifest(reg, scenarioManifestOptions{
			Small:    o.Small,
			Scenario: o.Scenario,
			ROV:      o.ROV,
			Survey:   pl.SurveyOptions(),
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "manifest written to %s\n", o.Manifest)
	}
	return o.DumpMetrics(w, reg)
}

// countASes counts distinct R&E-connected origin ASes (the paper's
// 2,653 figure), not the whole simulated world.
func countASes(s *core.Survey) int {
	set := map[asn.AS]bool{}
	for _, pi := range s.Eco.Prefixes {
		set[pi.Origin] = true
	}
	return len(set)
}

// relationshipAccuracy runs Gao-style relationship inference over the
// collector-observed paths of every origin and scores it against the
// generator's session classes.
func relationshipAccuracy(s *core.Survey, views map[asn.AS]*core.OriginView) (acc float64, evaluated, nPaths int) {
	eco := s.Eco
	var paths []asn.Path
	origins := make([]asn.AS, 0, len(views))
	for origin := range views {
		origins = append(origins, origin)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, origin := range origins {
		paths = append(paths, views[origin].CollectorPaths...)
	}
	inf := asrel.NewInferrer()
	for _, p := range paths {
		inf.AddPath(p)
	}
	res := inf.Infer(paths)
	correct := 0
	for _, ie := range res.Edges() {
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
	return acc, evaluated, len(paths)
}

func writeJSON(s *core.Survey, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, pair := range []struct {
		name string
		res  *core.Result
	}{{"surf", s.SURF}, {"internet2", s.Internet2}} {
		f, err := os.Create(filepath.Join(dir, pair.name+".json"))
		if err != nil {
			return err
		}
		for _, round := range pair.res.Rounds {
			if err := s.Prober.WriteJSON(f, round); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func writeMRT(s *core.Survey, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Collector RIB snapshots for the measurement prefix.
	for i, col := range s.Eco.Collectors {
		rib := collector.Snapshot(s.Eco.Net, col, []netutil.Prefix{s.Eco.MeasPrefix})
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("rib-collector%d.mrt", i)))
		if err != nil {
			return err
		}
		if err := rib.WriteMRT(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	// Update streams per experiment.
	for _, pair := range []struct {
		name string
		res  *core.Result
	}{{"surf", s.SURF}, {"internet2", s.Internet2}} {
		f, err := os.Create(filepath.Join(dir, "updates-"+pair.name+".mrt"))
		if err != nil {
			return err
		}
		if err := collector.WriteUpdates(f, pair.res.Churn); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
