package main

// calls.go is the only file of the benchmark that imports
// repro/internal/...: every call into the program is made here, so a
// change to the program's API surface breaks the yardstick in exactly
// one place. It calls context-taking entry points and pipeline
// defaults only, and nothing on the ROADMAP's deletion list.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/irr"
	"repro/internal/netutil"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/vtime"
)

// subSeed derives operation i's session seed from the run seed.
func subSeed(seed int64, i int) int64 { return parallel.SubSeed(seed, uint64(i)) }

// scaled divides the population counts of a generator configuration,
// keeping its topology grammar and policy mixes.
func scaled(cfg topo.GenConfig, div int) topo.GenConfig {
	cfg.MembersUS /= div
	cfg.MembersIntl /= div
	cfg.NIKSCustomers /= div
	cfg.ExtraCollectorFeeds /= div
	return cfg
}

// surveyOptions is the paper-scale survey configuration with its
// populations divided by div (1 = the paper's scale).
func surveyOptions(div int) core.SurveyOptions {
	o := core.DefaultSurveyOptions()
	o.Topology = scaled(topo.DefaultConfig(), div)
	return o
}

// liveRegistry returns a telemetry registry for a traced operation and
// nil for a timed one, which keeps instrumentation a no-op there. The
// time is the registry's epoch on the tracer's clock.
func liveRegistry(in opIn) (*telemetry.Registry, time.Time) {
	if in.tr == nil {
		return nil, time.Time{}
	}
	return telemetry.New(), time.Now()
}

func phasesOf(reg *telemetry.Registry) []phase {
	var out []phase
	for _, r := range reg.Phases() {
		out = append(out, phase{Path: r.Path, StartS: r.StartMS / 1e3, Duration: r.DurationMS / 1e3})
	}
	return out
}

// phaseSeconds sums registry phase durations per layer. This is busy
// time: phases of sweep points that ran in parallel add up. A layer
// with no phase at all stays unset, so the harness reports it missing
// rather than as zero work.
func phaseSeconds(reg *telemetry.Registry, ls *layerSet) {
	sum := map[string]float64{}
	for _, p := range phasesOf(reg) {
		if l := phaseLayer(p.Path); l != "" {
			sum[l] += p.Duration
		}
	}
	// A config span contains its probing round; delta convergence is
	// the rest of it.
	if v, ok := sum["bgp.delta"]; ok {
		sum["bgp.delta"] = v - sum["probe.rounds"]
	}
	for _, l := range []string{"probe.rounds", "core.classify", "bgp.delta"} {
		if v, ok := sum[l]; ok {
			ls.set(l+"_s", v)
		}
	}
}

// counterSum adds every counter whose name is base or base{...}.
func counterSum(reg *telemetry.Registry, base string) (total int64, found bool) {
	m, err := reg.Snapshot(telemetry.SnapshotOptions{ZeroDurations: true})
	if err != nil {
		return 0, false
	}
	for _, c := range m.Metrics.Counters {
		if c.Name == base || strings.HasPrefix(c.Name, base+"{") {
			total += c.Value
			found = true
		}
	}
	return total, found
}

// probeLayers reports the probing counts and the delta-convergence
// work the registry recorded.
func probeLayers(reg *telemetry.Registry, ls *layerSet) {
	if n, ok := counterSum(reg, "probe_probes_sent_total"); ok {
		ls.set("probe.probes_sent", float64(n))
	}
	if n, ok := counterSum(reg, "core_delta_decision_runs_total"); ok {
		ls.set("bgp.delta_decision_runs", float64(n))
	}
}

func summaryStats(d *digest, s *core.SurveySummary) {
	infs := make([]int, 0, len(s.PrefixCount))
	for inf := range s.PrefixCount {
		infs = append(infs, int(inf))
	}
	sort.Ints(infs)
	for _, inf := range infs {
		d.add("cat %d=%d", inf, s.PrefixCount[core.Inference(inf)])
	}
	d.add("total=%d ases=%d unresp=%d insuff=%d", s.TotalPrefixes, s.TotalASes, s.Unresponsive, s.InsufficientData)
}

// checkSummary asserts Table 1's category counts add up to its total.
func checkSummary(out *opOut, s *core.SurveySummary) {
	sum := 0
	for _, n := range s.PrefixCount {
		sum += n
	}
	if sum != s.TotalPrefixes {
		out.fail("%s: Table 1 categories sum to %d, total says %d", s.Name, sum, s.TotalPrefixes)
	}
}

// ---- survey_paper -------------------------------------------------------

type surveyHold struct {
	s     *core.Survey
	views map[asn.AS]*core.OriginView
	ds    *core.Dataset
}

// surveyOp is what every user of the reproduction runs: build the
// world, run both experiments, then the analysis calls cmd/resurvey's
// run makes, in its order, and the dataset release.
func surveyOp(ctx context.Context, in opIn) (opOut, error) {
	var out opOut
	reg, regEpoch := liveRegistry(in)
	pl := core.NewPipeline(core.WithSurvey(surveyOptions(in.size.SurveyDiv)),
		core.WithSeed(in.seed), core.WithWorkers(in.workers), core.WithMetrics(reg))

	end := in.tr.start("core.new_survey")
	s := pl.NewSurvey()
	end()

	end = in.tr.start("core.run_both")
	err := s.RunBothContext(ctx)
	in.tr.adopt(regEpoch, phasesOf(reg))
	end()
	if err != nil {
		return out, fmt.Errorf("RunBothContext: %w", err)
	}

	end = in.tr.start("core.tables")
	surfSum := core.Summarize(s.Eco, s.SURF)
	juneSum := core.Summarize(s.Eco, s.Internet2)
	breakdown := core.BreakdownByProvider(s.Eco, s.Internet2)
	mixRE, mixComm := core.MixedRatio(s.Internet2)
	cmp := core.Compare(s.Eco, s.SURF, s.Internet2)
	cong := core.Congruence(s.Eco, s.Internet2, 11537, 396955)
	lgv := core.ValidateAgainstLookingGlasses(s.Eco, s.Internet2, 11537, 15)
	valSURF := core.Validate(s.Eco, s.SURF)
	valJune := core.Validate(s.Eco, s.Internet2)
	end()

	end = in.tr.start("bgp.static_solve")
	views := core.ComputeOriginViews(s.Eco)
	end()

	end = in.tr.start("core.tables")
	pa := core.AnalyzePrepending(s.Eco, s.Internet2, views)
	docs := irr.FromEcosystem(s.Eco, irr.DefaultGenConfig())
	end()

	end = in.tr.start("core.predictors")
	pe := core.EvaluatePredictors(s.Eco, s.SURF, s.Internet2, views, docs)
	end()

	end = in.tr.start("core.tables")
	ra := core.AnalyzeRIPE(s.Eco, views, core.BuildGeoDB(s.Eco))
	churnSURF := core.BuildChurnTimeline(s.SURF, 1125)
	churnJune := core.BuildChurnTimeline(s.Internet2, 11537)
	fig7 := core.Figure7Table()
	sm := core.EvaluateSwitchModel(s.Eco, s.Internet2)
	sw := core.SwitchPrefixes(s.SURF, s.Internet2)
	cdfSURF := core.BuildSwitchCDF(s.Eco, s.SURF, sw)
	cdfJune := core.BuildSwitchCDF(s.Eco, s.Internet2, sw)
	lat := core.AnalyzeLatency(s.Internet2)
	rounds := core.AblateRounds(s.Internet2, core.StandardSubsets())
	end()

	end = in.tr.start("core.ablate_targets")
	targets := core.AblateTargets(s.Internet2, []int{1, 2, 3})
	end()

	end = in.tr.start("core.ablate_round_gap")
	gaps := core.AblateRoundGap([]int{600, 1800, 3600}, core.SmallSurveyOptions())
	end()

	end = in.tr.start("core.tables")
	irrStats := irr.CompareDocumented(s.Eco, docs)
	end()

	end = in.tr.start("core.dataset")
	ds := core.BuildDataset(s)
	err = core.WriteDataset(io.Discard, ds)
	end()
	if err != nil {
		return out, fmt.Errorf("WriteDataset: %w", err)
	}

	out.work = float64(len(s.SURF.PerPrefix) + len(s.Internet2.PerPrefix))
	for _, v := range []*core.Validation{valSURF, valJune} {
		if v.Accuracy() < 0.99 {
			out.fail("inference accuracy %.4f < 0.99 over %d prefixes", v.Accuracy(), v.Evaluated)
		}
	}
	checkSummary(&out, surfSum)
	checkSummary(&out, juneSum)

	var d digest
	summaryStats(&d, surfSum)
	summaryStats(&d, juneSum)
	d.add("mixed %d:%d cmp %d/%d niks %d cong vrf %d lg %d/%d/%d", mixRE, mixComm,
		cmp.Different, cmp.DifferencesViaNIKS, len(breakdown), cong.VRFExplained,
		lgv.Agreements, lgv.Disagreements, lgv.Indeterminate)
	d.add("val %d/%d %d/%d", len(valSURF.Wrong), valSURF.Evaluated, len(valJune.Wrong), valJune.Evaluated)
	d.add("views %d ripe %d/%d switch %d/%d/%d sw %d", len(views), ra.PrefixesViaRE, ra.Prefixes,
		sm.Exact, sm.OffByOne, sm.Other, len(sw))
	d.add("irr %d/%d/%d ds %d", irrStats.Documented, irrStats.Conforming, irrStats.Undocumented, len(ds.Prefixes))
	for _, r := range targets {
		d.add("targets %d mixed %d loss %d", r.MaxTargets, r.MixedDetected, r.LossExcluded)
	}
	for _, r := range rounds {
		d.add("rounds %s %d", r.Subset.Name, r.Classified)
	}
	out.hash = d.sum()

	out.hold = []any{surveyHold{s, views, ds}, pa, pe, churnSURF, churnJune, fig7, cdfSURF, cdfJune, lat, gaps}
	if in.layers != nil {
		probeLayers(reg, in.layers)
	}
	return out, nil
}

// convergeLayer measures the initial convergence every sweep variant
// forks from, on a fresh survey, and — on the converged world — one
// isolated snapshot encode and restore (median of five), the pair warm
// start trades against that convergence.
func convergeLayer(in opIn, opts core.SurveyOptions) {
	pl := core.NewPipeline(core.WithSurvey(opts), core.WithSeed(in.seed), core.WithWorkers(in.workers))
	s := pl.NewSurvey()
	x := core.NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, bgp.Time(9*3600))
	st0 := s.Eco.Net.Stats()
	t0 := time.Now()
	x.Converge()
	in.layers.set("bgp.converge_s", time.Since(t0).Seconds())
	in.layers.set("bgp.converge_decision_runs", float64(s.Eco.Net.Stats().DecisionRuns-st0.DecisionRuns))

	var enc, dec []float64
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := s.Eco.Net.Snapshot(&buf); err != nil {
			in.layers.warn("Snapshot: %v", err)
			return
		}
		enc = append(enc, time.Since(t0).Seconds())
		t0 = time.Now()
		if err := bgp.RestoreNetwork(bytes.NewReader(buf.Bytes()), s.Eco.Net); err != nil {
			in.layers.warn("RestoreNetwork: %v", err)
			return
		}
		dec = append(dec, time.Since(t0).Seconds())
	}
	in.layers.set("bgp.snapshot_encode_s", median(enc))
	in.layers.set("bgp.snapshot_restore_s", median(dec))
	in.layers.set("bgp.snapshot_bytes", float64(buf.Len()))
}

func surveyExtras(ctx context.Context, in opIn, out opOut) {
	convergeLayer(in, surveyOptions(in.size.SurveyDiv))
}

// ---- sweep_warm ---------------------------------------------------------

type sweepHold struct {
	faults    []core.FaultSweepPoint
	scenario  []core.ScenarioPoint
	catchment *core.OptimizeResult
	probe     *core.OptimizeResult
}

func faultStats(d *digest, pts []core.FaultSweepPoint) {
	for _, p := range pts {
		d.add("fault %.2f faults %d/%d/%d outage %d wrong %d/%d", p.Intensity,
			p.SessionFaults, p.Brownouts, p.FeedGaps, p.OutageClasses, len(p.Validation.Wrong), p.Validation.Evaluated)
		summaryStats(d, p.Summary)
	}
}

func faultSweepOptions(pl *core.Pipeline) core.FaultSweepOptions {
	fo := pl.FaultSweepOptions()
	fo.Survey = pl.SurveyOptions()
	fo.Intensities = []float64{0, 0.25, 0.5}
	return fo
}

func sweepPipeline(in opIn, reg *telemetry.Registry, workers int) *core.Pipeline {
	return core.NewPipeline(core.WithSurvey(surveyOptions(in.size.SweepDiv)),
		core.WithSeed(in.seed), core.WithWorkers(workers), core.WithMetrics(reg),
		core.WithScenario("hijack"))
}

// sweepOp runs each of the program's "converge once, snapshot, restore
// per point, measure the delta" loops once.
func sweepOp(ctx context.Context, in opIn) (opOut, error) {
	var out opOut
	reg, _ := liveRegistry(in)
	pl := sweepPipeline(in, reg, in.workers)

	end := in.tr.start("core.fault_sweep")
	faultPts, err := core.RunFaultSweepContext(ctx, faultSweepOptions(pl))
	end()
	if err != nil {
		return out, fmt.Errorf("RunFaultSweepContext: %w", err)
	}

	so := pl.ScenarioSweepOptions()
	so.Survey = pl.SurveyOptions()
	so.Adoptions = []float64{1}
	end = in.tr.start("core.scenario_sweep")
	scenPts, err := core.RunScenarioSweepContext(ctx, so)
	end()
	if err != nil {
		return out, fmt.Errorf("RunScenarioSweepContext: %w", err)
	}

	oo := pl.OptimizeOptions()
	oo.Objective, oo.Strategy, oo.Budget = "catchment:re=0.4", "hillclimb", in.size.CatchmentBudget
	end = in.tr.start("core.optimize_catchment")
	catchment, err := core.RunOptimizeContext(ctx, oo)
	end()
	if err != nil {
		return out, fmt.Errorf("RunOptimizeContext(catchment): %w", err)
	}

	oo.Objective, oo.Strategy, oo.Budget = "probe:re=0.5,commodity=0.3,loss=0.2", "evolve", in.size.ProbeBudget
	end = in.tr.start("core.optimize_probe")
	probeRes, err := core.RunOptimizeContext(ctx, oo)
	end()
	if err != nil {
		return out, fmt.Errorf("RunOptimizeContext(probe): %w", err)
	}

	out.work = float64(len(faultPts) + len(scenPts) + catchment.Evaluated + probeRes.Evaluated)
	for _, p := range scenPts {
		if !p.Baseline && p.Adoption == 1 && p.PollutedASes != 0 {
			out.fail("hijack at full ROV adoption polluted %d ASes", p.PollutedASes)
		}
	}
	for _, r := range []*core.OptimizeResult{catchment, probeRes} {
		if r.Best.Score < r.BaselineScore {
			out.fail("%s: best score %v below baseline %v", r.Objective, r.Best.Score, r.BaselineScore)
		}
	}

	var fd, d digest
	faultStats(&fd, faultPts)
	d.add("faults %s", fd.sum())
	for _, p := range scenPts {
		d.add("scen %.2f base %v dep %d census %d/%d/%d mid %x end %x", p.Adoption, p.Baseline, p.Deployed,
			p.PollutedASes, p.CleanASes, p.UnreachableASes, p.MidSignature, p.EndDigest)
	}
	for _, r := range []*core.OptimizeResult{catchment, probeRes} {
		d.add("opt %s best %s %.9f base %.9f eval %d gen %d", r.Objective, r.Best.Candidate.Label(),
			r.Best.Score, r.BaselineScore, r.Evaluated, r.Generations)
	}
	out.hash = d.sum()
	out.partHash = fd.sum()
	out.hold = sweepHold{faultPts, scenPts, catchment, probeRes}

	if ls := in.layers; ls != nil {
		phaseSeconds(reg, ls)
		probeLayers(reg, ls)
		ls.set("optimize.evaluated", float64(catchment.Evaluated+probeRes.Evaluated))
		ls.set("optimize.catchment_evaluated", float64(catchment.Evaluated))
		ls.set("optimize.warm_restores", float64(catchment.WarmRestores+probeRes.WarmRestores))
		ls.set("optimize.eval_decision_runs", float64(catchment.EvalDecisionRuns+probeRes.EvalDecisionRuns))
	}
	return out, nil
}

// sweepExtras adds the isolated convergence/snapshot figures and
// repeats the fault sweep at one worker: the wall ratio is what
// -workers buys, the CPU ratio what it costs.
func sweepExtras(ctx context.Context, in opIn, out opOut) {
	convergeLayer(in, surveyOptions(in.size.SweepDiv))

	timeSweep := func(workers int) (wall, cpu float64, hash string, err error) {
		fo := faultSweepOptions(sweepPipeline(in, nil, workers))
		c0, t0 := cpuSeconds(), time.Now()
		pts, err := core.RunFaultSweepContext(ctx, fo)
		wall, cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
		if err != nil {
			return 0, 0, "", err
		}
		var d digest
		faultStats(&d, pts)
		return wall, cpu, d.sum(), nil
	}
	wallN, cpuN, _, errN := timeSweep(in.workers)
	wall1, cpu1, hash1, err1 := timeSweep(1)
	if errN != nil || err1 != nil {
		in.layers.warn("fault sweep re-run: %v %v", errN, err1)
		return
	}
	if hash1 != out.partHash {
		in.layers.fail("fault sweep at workers=1 gave statistics %s, the timed width gave %s", hash1, out.partHash)
	}
	in.layers.set("parallel.sweep_speedup", wall1/wallN)
	in.layers.set("parallel.cpu_inflation", cpuN/cpu1)
}

// ---- event_storm --------------------------------------------------------

// stormOp drives the BGP engine's per-update path through the virtual
// clock; probing and analysis do almost nothing here.
func stormOp(ctx context.Context, in opIn) (opOut, error) {
	var out opOut
	reg, _ := liveRegistry(in)
	pl := core.NewPipeline(core.WithSmall(), core.WithSeed(in.seed), core.WithWorkers(in.workers), core.WithMetrics(reg))

	var results []*core.WorkloadResult
	var mallocs uint64
	for _, w := range []struct {
		span string
		opts core.WorkloadOptions
	}{
		{"core.update_storm", core.WorkloadOptions{Name: "update-storm", Duration: vtime.Time(in.size.StormSeconds)}},
		{"core.flap_cascade", core.WorkloadOptions{Name: "flap-cascade-rfd", Duration: vtime.Time(in.size.FlapSeconds)}},
	} {
		end := in.tr.start(w.span)
		m0 := mallocCount(in.tr)
		res, err := pl.RunWorkload(w.opts)
		mallocs += mallocCount(in.tr) - m0
		end()
		if err != nil {
			return out, fmt.Errorf("RunWorkload(%s): %w", w.opts.Name, err)
		}
		if res.UpdatesDelivered <= 0 {
			out.fail("%s delivered no updates", res.Name)
		}
		results = append(results, res)
	}
	if results[1].RFDSuppressions <= 0 {
		out.fail("flap-cascade-rfd suppressed nothing")
	}

	var d digest
	var updates, suppressions, dispatched int64
	for _, r := range results {
		updates += r.UpdatesDelivered
		suppressions += r.RFDSuppressions
		dispatched += r.Dispatched
		d.add("%s upd %d pen %d sup %d disp %d bgp %d probes %d/%d rib %x", r.Name, r.UpdatesDelivered,
			r.RFDPenalties, r.RFDSuppressions, r.Dispatched, r.BGPEvents, r.ProbesSent, r.ProbesResponded, r.RIBDigest)
	}
	out.work = float64(updates)
	out.hash = d.sum()
	out.hold = results

	if ls := in.layers; ls != nil {
		ls.set("bgp.updates_delivered", float64(updates))
		ls.set("bgp.rfd_suppressions", float64(suppressions))
		ls.set("vtime.dispatched", float64(dispatched))
		ls.set("bgp.allocs_per_update", float64(mallocs)/float64(updates))
	}
	return out, nil
}

// mallocCount reads the cumulative heap-object count in traced
// operations only; ReadMemStats stops the world, so timed ones skip it.
func mallocCount(tr *tracer) uint64 {
	if tr == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// bareEngineLayer schedules and dispatches a million no-op events on
// an isolated virtual-clock engine: the event queue's own ceiling, to
// set beside the updates/s the BGP engine achieves on top of it.
func bareEngineLayer(ls *layerSet) {
	const population, events = 256, 1_000_000
	eng := vtime.NewEngine(0)
	left := events
	var tick vtime.Handler
	tick = func(now vtime.Time) {
		if left > 0 {
			left--
			eng.At(now+vtime.Time(16+left%33), tick)
		}
	}
	t0 := time.Now()
	for k := 0; k < population; k++ {
		eng.At(vtime.Time(k%33), tick)
	}
	eng.RunUntil(vtime.Time(1 << 40))
	ls.set("vtime.bare_events_per_s", float64(eng.Dispatched())/time.Since(t0).Seconds())
}

// ---- rib_scale ----------------------------------------------------------

// ribOp builds a slice of the internet tier and drives the RIB store
// both ways: bulk install and withdraw (writes) and a sorted walk for
// the snapshot (reads).
func ribOp(ctx context.Context, in opIn) (opOut, error) {
	var out opOut
	cfg := scaled(topo.InternetConfig(), in.size.RIBDiv)
	cfg.Seed = in.seed

	end := in.tr.start("topo.build")
	e := topo.Build(cfg)
	end()

	end = in.tr.start("bgp.flood_converge")
	e.Net.RunToQuiescence()
	end()

	// Full-table vantage, as BenchmarkInternetScaleRIB feeds it: one
	// speaker announces every member prefix to the first collector with
	// the origin chain carried as poison, so the collector holds one
	// realistic multi-hop path per origin.
	end = in.tr.start("bgp.feed_install")
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
	chain := make([]asn.AS, 3)
	for _, pi := range e.Prefixes {
		info := e.AS(pi.Origin)
		up := pi.Origin
		if len(info.REProviders) > 0 {
			up = info.REProviders[0]
		} else if len(info.CommodityProviders) > 0 {
			up = info.CommodityProviders[0]
		}
		chain[0], chain[1], chain[2] = e.Lumen.AS, up, pi.Origin
		e.Net.OriginateWith(feedID, pi.Prefix, bgp.OriginateOpts{Poison: chain})
	}
	e.Net.RunToQuiescence()
	end()

	before := e.Net.RIBStats()
	collector := e.Net.Speaker(e.Collectors[0])
	rng := parallel.Rand(in.seed, 0xB35C)
	sample := make([]netutil.Prefix, 0, 1000)
	for len(sample) < cap(sample) {
		sample = append(sample, e.Prefixes[rng.Intn(len(e.Prefixes))].Prefix)
	}
	bestOf := func() []string {
		bests := make([]string, len(sample))
		for i, p := range sample {
			if r := collector.Best(p); r != nil {
				bests[i] = fmt.Sprint(*r)
			}
		}
		return bests
	}
	bestBefore := bestOf()

	var buf bytes.Buffer
	end = in.tr.start("bgp.snapshot_encode")
	err := e.Net.Snapshot(&buf)
	end()
	if err != nil {
		return out, fmt.Errorf("Snapshot: %w", err)
	}
	snapBytes := buf.Len()
	end = in.tr.start("bgp.snapshot_restore")
	err = bgp.RestoreNetwork(&buf, e.Net)
	end()
	if err != nil {
		return out, fmt.Errorf("RestoreNetwork: %w", err)
	}

	// ArenaBytes counts slab capacity, free slots included, which a
	// restore re-sizes; what the store holds must not change.
	after := e.Net.RIBStats()
	after.ArenaBytes = before.ArenaBytes
	if after != before {
		out.fail("RIBStats changed across snapshot/restore: %+v then %+v", before, after)
	}
	for i, b := range bestOf() {
		if b != bestBefore[i] {
			out.fail("collector best route for %s changed across snapshot/restore", sample[i])
			break
		}
	}

	end = in.tr.start("bgp.withdraw")
	for i, pi := range e.Prefixes {
		if i%3 == 0 {
			e.Net.WithdrawOrigination(feedID, pi.Prefix)
		}
	}
	e.Net.RunToQuiescence()
	end()
	final := e.Net.RIBStats()

	var d digest
	d.add("ases %d prefixes %d before %+v final %+v snap %d", len(e.ASes), len(e.Prefixes), before, final, snapBytes)
	for _, b := range bestBefore[:16] {
		d.add("%s", b)
	}
	out.work = float64(before.Routes)
	out.hash = d.sum()
	out.hold = e
	out.routes = before.Routes

	if ls := in.layers; ls != nil {
		ls.set("bgp.routes", float64(before.Routes))
		ls.set("bgp.distinct_paths", float64(before.DistinctPaths))
		ls.set("bgp.snapshot_bytes", float64(snapBytes))
		ls.set("bgp.modelled_bytes_per_route", before.BytesPerRoute())
	}
	return out, nil
}

// ribExtras sets the real heap cost of a route beside the store's own
// model of it.
func ribExtras(ctx context.Context, in opIn, out opOut) {
	if out.routes > 0 {
		in.layers.set("bgp.heap_bytes_per_route", out.heapDelta/float64(out.routes))
	}
}
