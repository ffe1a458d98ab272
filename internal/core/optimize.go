package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/bgp"
	"repro/internal/optimize"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/report"
	snap "repro/internal/snapshot"
	"repro/internal/telemetry"
)

// This file is the bridge between the pure search machinery in
// internal/optimize and a live measurement world: RunOptimizeContext
// builds one converged survey, opens an undo journal at that pristine
// fork point (bgp.Network.OpenJournal), and evaluates every candidate
// configuration by rewinding the journal and pushing the candidate's
// traffic-engineering delta through the engine. It is the one sweep
// that forks instead of building a world per point, and a rewind costs
// what the previous candidate's delta touched, not what the world
// holds (see EXPERIMENTS.md, "Warm start"). The pristine snapshot is
// still taken once: its size is reported, and the tests hold every
// rewind to it byte for byte.

// OptimizeOptions configures a policy-optimization run.
type OptimizeOptions struct {
	// Survey is the world configuration; the search optimizes the
	// measurement announcement of the SURF experiment on it.
	Survey SurveyOptions
	// Objective is the target spec (see optimize.ParseSpec):
	// "catchment:re=0.4" or "probe:re=0.5,commodity=0.3,loss=0.2".
	Objective string
	// Strategy selects the searcher: "hillclimb" or "evolve".
	Strategy string
	// Budget is the total candidate-evaluation budget (0 returns the
	// baseline configuration unevaluated).
	Budget int
	// Workers bounds concurrent candidate evaluations; <= 0 means
	// GOMAXPROCS. Results are byte-identical at any width.
	Workers int
	// SearchSeed keys every proposal RNG stream (the pipeline derives
	// it from the session seed via optimizeSeedStream).
	SearchSeed int64
	// Metrics receives the run's counters and spans; nil disables
	// telemetry. Evaluation-world engines are never instrumented —
	// engine counters would vary with evaluation scheduling — so
	// everything recorded here is identical at any Workers value.
	Metrics *telemetry.Registry
	// Progress, when non-nil, fires serially after every generation.
	Progress func(OptimizeProgress)
	// Checkpoint, when non-nil, fires serially after every generation
	// with the encoded search state (optimize.EncodeState) — durable
	// enough to resume the search bit-exactly.
	Checkpoint func(state []byte, p OptimizeProgress)
	// Resume, when non-nil, is a prior Checkpoint blob to continue
	// from; its fingerprint must match this run's configuration.
	Resume []byte
}

// OptimizeProgress is one generation's headline numbers, as handed to
// the Progress callback (and streamed by resurveyd).
type OptimizeProgress struct {
	Generation int     `json:"generation"`
	Evaluated  int     `json:"evaluated"`
	Budget     int     `json:"budget"`
	BestScore  float64 `json:"best_score"`
	BestConfig string  `json:"best_config"`
}

// OptimizeResult is a search run's complete output.
type OptimizeResult struct {
	Objective   string
	Strategy    string
	Budget      int
	Evaluated   int
	Generations int
	Restarts    int
	// Best is the winning candidate; BaselineScore is the pristine
	// configuration's score under the same objective, so improvement is
	// Best.Score - BaselineScore.
	Best          optimize.Scored
	BaselineScore float64
	BaselineEval  optimize.Eval
	BestEval      optimize.Eval
	Trajectory    []optimize.TrajectoryPoint
	// WarmRestores counts journal rewinds (one per evaluation, plus the
	// final rewind that returns a world to the pristine fork point).
	WarmRestores int64
	// EvalDecisionRuns totals the BGP decision evaluations the
	// candidate evaluations cost, excluding the one-time convergence
	// of each evaluation world — the warm-start savings metric.
	EvalDecisionRuns int64
	// SnapshotBytes is the pristine snapshot's size.
	SnapshotBytes int
	// State is the final encoded search state (resumable checkpoint).
	State []byte
}

// optimizeSeedStream derives the search seed from the session seed
// (see the Pipeline doc for the derivation map).
const optimizeSeedStream = 0x0071

// policyEvaluator implements optimize.Evaluator against a pool of
// journaled worlds. Evaluations are pure per candidate (rewind → apply
// → converge → census), so any world can serve any candidate and
// results are independent of scheduling.
type policyEvaluator struct {
	opts  OptimizeOptions
	obj   optimize.Objective
	start bgp.Time
	// pool holds the evaluation worlds, each with its journal open at
	// the fork point; nil is a world not built yet.
	pool chan *Survey
	reg  *telemetry.Registry

	warmRestores atomic.Int64
	decisionRuns atomic.Int64
}

// optStart is the virtual time of the optimizer's baseline
// convergence, matching RunBothContext's SURF experiment start.
const optStart = bgp.Time(9 * 3600)

// newPolicyEvaluator forks the converged driver world and slots-1
// further worlds, which converge on first use.
func newPolicyEvaluator(opts OptimizeOptions, obj optimize.Objective, driver *Survey, slots int) (*policyEvaluator, error) {
	ev := &policyEvaluator{
		opts:  opts,
		obj:   obj,
		start: optStart,
		pool:  make(chan *Survey, slots),
		reg:   opts.Metrics,
	}
	if err := ev.fork(driver); err != nil {
		return nil, err
	}
	ev.pool <- driver
	for i := 1; i < slots; i++ {
		ev.pool <- nil
	}
	return ev, nil
}

// fork wires a converged world for evaluation probing — response
// terminal mapping as in Experiment.RunContext, no injected dormancy
// (evaluations measure steady state, not loss) — and opens the journal
// every evaluation rewinds to.
func (ev *policyEvaluator) fork(s *Survey) error {
	s.Prober.Workers = 1
	s.World.SetTerminals(s.Eco.MeasSURF.Router, s.Eco.MeasCommodity.Router)
	if err := s.Eco.Net.OpenJournal(); err != nil {
		return fmt.Errorf("optimize: open journal at the fork point: %w", err)
	}
	return nil
}

func (ev *policyEvaluator) Evaluate(ctx context.Context, c optimize.Candidate) (optimize.Eval, error) {
	if err := ctx.Err(); err != nil {
		return optimize.Eval{}, err
	}
	s := <-ev.pool
	defer func() { ev.pool <- s }()
	if s == nil {
		// Converging builds the same pristine state the driver's
		// journal holds: the build and convergence are deterministic.
		w := NewSurvey(ev.opts.Survey)
		NewSURFExperiment(w.Eco, w.World, w.Prober, w.Sel, ev.start).Converge()
		if err := ev.fork(w); err != nil {
			return optimize.Eval{}, err
		}
		s = w
	}
	if err := ev.rewind(s); err != nil {
		return optimize.Eval{}, err
	}
	// The counters keep their names from when a rewind was a snapshot
	// restore, so manifests stay comparable across versions.
	ev.reg.Counter("opt_warm_restores_total").Inc()
	ev.reg.Counter("snapshot_restore_total").Inc()
	ev.reg.Counter("core_warm_start_skipped_convergence_runs_total").Inc()
	return ev.measure(s, c, s.Eco.Net.Stats())
}

// rewind undoes the previous candidate's delta — route state,
// prepends, localpref overrides, originations, queue and clock — and
// returns the world to the pristine fork point.
func (ev *policyEvaluator) rewind(s *Survey) error {
	if err := s.Eco.Net.Rewind(); err != nil {
		return fmt.Errorf("optimize: rewind to the fork point: %w", err)
	}
	ev.warmRestores.Add(1)
	return nil
}

// measure applies the candidate's configuration delta as one batch,
// lets the network converge, and takes the catchment census (plus a
// probe round when the objective needs one). st0 anchors the work
// metering: the returned Eval's DecisionRuns/FullScans cover exactly
// the delta this candidate cost.
func (ev *policyEvaluator) measure(s *Survey, c optimize.Candidate, st0 bgp.IncStats) (optimize.Eval, error) {
	net := s.Eco.Net
	eco := s.Eco
	meas := eco.MeasPrefix
	reOrigin := eco.MeasSURF.Router
	comOrigin := eco.MeasCommodity.Router

	net.Batch(func() {
		PrependConfig{
			RE:        int(c.Genes[optimize.GeneREPrepend]),
			Commodity: int(c.Genes[optimize.GeneCommodityPrepend]),
		}.Announce(net, meas, reOrigin, comOrigin)
		if i := c.Genes[optimize.GeneRELocalPref]; i != 0 {
			pref := optimize.LocalPrefChoices[i]
			for _, nb := range net.Speaker(reOrigin).Peers() {
				net.SetImportLocalPref(nb, reOrigin, pref)
			}
		}
		if i := c.Genes[optimize.GeneCommodityLocalPref]; i != 0 {
			pref := optimize.LocalPrefChoices[i]
			for _, nb := range net.Speaker(comOrigin).Peers() {
				net.SetImportLocalPref(nb, comOrigin, pref)
			}
		}
		if c.Genes[optimize.GeneREAction] == 1 {
			// Re-originate with NO_EXPORT: the R&E announcement stops at
			// direct peers. The journal rewinds the origination.
			net.OriginateWith(reOrigin, meas, bgp.OriginateOpts{
				Communities: bgp.NewCommunitySet(bgp.NoExport),
			})
		}
	})
	// The schedule waits RoundGap between a change and its probe; the
	// census and probe happen at that round boundary, after the delta
	// has fully drained.
	probeAt := ev.start + 3600
	net.RunToQuiescence()
	net.RunTo(probeAt)

	var e optimize.Eval
	for _, info := range eco.ASes {
		if info.AS == eco.MeasSURF.AS || info.AS == eco.MeasCommodity.AS {
			continue
		}
		r := net.Speaker(info.Router).Best(meas)
		switch {
		case r == nil:
			e.UnreachableASes++
		case r.Path.Origin() == eco.MeasSURF.AS:
			e.REASes++
		default:
			e.CommodityASes++
		}
	}
	if ev.obj.NeedsProbe() {
		round := s.Prober.Run("opt", net.Now(), s.Sel)
		for _, row := range Observe([]*probe.Round{round}, 0) {
			switch row.Seq[0] {
			case ObsRE:
				e.ProbeRE++
			case ObsCommodity:
				e.ProbeCommodity++
			case ObsMixed:
				e.ProbeMixed++
			default:
				e.ProbeLoss++
			}
		}
	}
	st1 := net.Stats()
	e.DecisionRuns = st1.DecisionRuns - st0.DecisionRuns
	e.FullScans = st1.FullScans - st0.FullScans
	ev.decisionRuns.Add(e.DecisionRuns)
	ev.reg.Counter("opt_eval_decision_runs_total").Add(e.DecisionRuns)
	ev.reg.Counter("opt_eval_full_scans_total").Add(int64(e.FullScans))
	return e, nil
}

// search parses the objective and strategy and assembles the search
// options whose fingerprint keys a resumable checkpoint.
func (o OptimizeOptions) search() (optimize.Objective, optimize.Searcher, optimize.Options, error) {
	obj, err := optimize.ParseSpec(o.Objective)
	if err != nil {
		return nil, nil, optimize.Options{}, err
	}
	sr, err := optimize.NewSearcher(o.Strategy)
	if err != nil {
		return nil, nil, optimize.Options{}, err
	}
	return obj, sr, optimize.Options{
		Seed:    o.SearchSeed,
		Budget:  o.Budget,
		Workers: o.Workers,
		Metrics: o.Metrics,
	}, nil
}

// SearchFingerprint is the resume-compatibility key of the run these
// options describe — what RunOptimizeContext demands of a Resume blob —
// so a front end can skip stale checkpoint files instead of failing.
func (o OptimizeOptions) SearchFingerprint() (optimize.Fingerprint, error) {
	obj, sr, runOpts, err := o.search()
	if err != nil {
		return optimize.Fingerprint{}, err
	}
	return optimize.FingerprintFor(obj, sr, runOpts), nil
}

// SearchStateName is the file name both front ends give generation
// g's Checkpoint blob; the names sort chronologically.
func SearchStateName(generation int) string {
	return fmt.Sprintf("search-%04d.ropt", generation)
}

// LatestSearchState returns the newest search-state blob in dir whose
// fingerprint is want, skipping corrupt or mismatched files for older
// ones, and nil when nothing usable exists (the search starts from
// generation zero).
func LatestSearchState(dir string, want optimize.Fingerprint) []byte {
	var blob []byte
	snap.NewestValid(dir, ".ropt", func(_ string, data []byte) (bool, error) {
		fp, _, err := optimize.DecodeState(data)
		if err != nil || fp != want {
			return false, err
		}
		blob = data
		return true, nil
	})
	return blob
}

// RunOptimizeContext builds one survey world, converges the baseline
// announcement, snapshots the pristine fork point, and searches the
// configuration space by warm-started evaluation. The driver world is
// returned to the pristine state afterwards. Output is byte-identical
// at any Workers value: proposals draw from per-ordinal RNG streams,
// evaluations merge in candidate order, and no evaluation world feeds
// the registry.
func RunOptimizeContext(ctx context.Context, opts OptimizeOptions) (*OptimizeResult, error) {
	obj, sr, runOpts, err := opts.search()
	if err != nil {
		return nil, err
	}
	reg := opts.Metrics
	span := reg.StartSpan("optimize:" + sr.Name())
	defer span.End()

	buildSpan := reg.StartSpan("optimize-converge")
	driver := NewSurvey(opts.Survey)
	x := NewSURFExperiment(driver.Eco, driver.World, driver.Prober, driver.Sel, optStart)
	x.Metrics = reg // Converge meters via Stats deltas — deterministic
	x.Converge()
	var snapBuf bytes.Buffer
	if err := driver.Eco.Net.Snapshot(&snapBuf); err != nil {
		return nil, fmt.Errorf("optimize: snapshot pristine state: %w", err)
	}
	baseSnap := snapBuf.Bytes()
	reg.Counter("snapshot_bytes").Add(int64(len(baseSnap)))
	buildSpan.End()

	fp := optimize.FingerprintFor(obj, sr, runOpts)
	if opts.Resume != nil {
		ckFP, st, err := optimize.DecodeState(opts.Resume)
		if err != nil {
			return nil, fmt.Errorf("optimize: resume checkpoint: %w", err)
		}
		if ckFP != fp {
			return nil, fmt.Errorf("optimize: resume checkpoint is for a different search (%v, want %v)", ckFP, fp)
		}
		runOpts.Resume = st
	}

	slots := parallel.Workers(opts.Workers)
	if l := runOpts.Budget; l > 0 && slots > l {
		slots = l
	}
	if l := fp.Lambda; slots > l {
		slots = l
	}
	if slots < 1 {
		slots = 1
	}
	ev, err := newPolicyEvaluator(opts, obj, driver, slots)
	if err != nil {
		return nil, err
	}

	// Score the pristine configuration once, outside the budget, so the
	// report can state the improvement (and the savings test has a
	// guaranteed warm evaluation).
	baselineEval, err := ev.Evaluate(ctx, optimize.Baseline())
	if err != nil {
		return nil, err
	}

	if opts.Progress != nil || opts.Checkpoint != nil {
		runOpts.Progress = func(st *optimize.State, _ []optimize.Scored) {
			p := OptimizeProgress{
				Generation: st.Generation,
				Evaluated:  st.Evaluated,
				Budget:     opts.Budget,
				BestScore:  st.Best.Score,
				BestConfig: st.Best.Candidate.Label(),
			}
			if opts.Checkpoint != nil {
				opts.Checkpoint(optimize.EncodeState(fp, st), p)
			}
			if opts.Progress != nil {
				opts.Progress(p)
			}
		}
	}

	sres, err := optimize.Run(ctx, obj, sr, ev, runOpts)
	if err != nil {
		return nil, err
	}

	res := &OptimizeResult{
		Objective:     obj.Name(),
		Strategy:      sr.Name(),
		Budget:        opts.Budget,
		Evaluated:     sres.Evaluated,
		Generations:   sres.Generation,
		Restarts:      sres.Restarts,
		Best:          sres.Best,
		BaselineScore: obj.Score(baselineEval),
		BaselineEval:  baselineEval,
		Trajectory:    sres.Trajectory,
		SnapshotBytes: len(baseSnap),
		State:         optimize.EncodeState(fp, sres.State),
	}
	if !sres.BestSet {
		res.Best = optimize.Scored{Candidate: optimize.Baseline(), Score: res.BaselineScore}
	}
	// Re-evaluate the winner once to carry its census into the report
	// (the search keeps only scores).
	if bestEval, err := ev.Evaluate(ctx, res.Best.Candidate); err == nil {
		res.BestEval = bestEval
	} else {
		return nil, err
	}
	// Leave the driver world at the pristine fork point.
	if err := ev.rewind(driver); err != nil {
		return nil, err
	}
	driver.Eco.Net.CloseJournal()
	reg.Counter("snapshot_restore_total").Inc()
	res.WarmRestores = ev.warmRestores.Load()
	res.EvalDecisionRuns = ev.decisionRuns.Load()
	reg.Gauge("opt_warm_restore_reuse").Set(float64(res.WarmRestores))
	return res, nil
}

// WriteOptimizeReport renders the search outcome: the score-vs-budget
// trajectory table and the headline summary. Output is fully
// deterministic (no timings, no addresses).
func WriteOptimizeReport(w io.Writer, res *OptimizeResult) error {
	t := &report.Table{
		Title:   fmt.Sprintf("Optimization trajectory (%s, %s)", res.Objective, res.Strategy),
		Headers: []string{"Generation", "Evaluated", "Best score", "Best config"},
	}
	for _, p := range res.Trajectory {
		t.AddRow(fmt.Sprint(p.Generation), fmt.Sprint(p.Evaluated),
			fmt.Sprintf("%.6f", p.BestScore), p.BestLabel)
	}
	if _, err := io.WriteString(w, t.String()); err != nil {
		return err
	}
	census := func(e optimize.Eval) string {
		return fmt.Sprintf("re=%d commodity=%d unreachable=%d", e.REASes, e.CommodityASes, e.UnreachableASes)
	}
	lines := fmt.Sprintf(
		"\nBaseline: score %.6f (%s) [%s]\nBest:     score %.6f (%s) [%s]\n"+
			"Improvement: %+.6f over %d candidates in %d generations (%d restarts)\n"+
			"Evaluation: %d warm restores, 0 cold builds, %d decision runs, snapshot %d bytes\n",
		res.BaselineScore, optimize.Baseline().Label(), census(res.BaselineEval),
		res.Best.Score, res.Best.Candidate.Label(), census(res.BestEval),
		res.Best.Score-res.BaselineScore, res.Evaluated, res.Generations, res.Restarts,
		res.WarmRestores, res.EvalDecisionRuns, res.SnapshotBytes)
	_, err := io.WriteString(w, lines)
	return err
}
