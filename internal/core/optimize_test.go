package core

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bgp"
	"repro/internal/optimize"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/telemetry"
)

func optTestOptions(strategy string, workers int) OptimizeOptions {
	return OptimizeOptions{
		Survey:     SmallSurveyOptions(),
		Objective:  "catchment:re=0.3",
		Strategy:   strategy,
		Budget:     8,
		Workers:    workers,
		SearchSeed: 7,
	}
}

// optimizeArtifacts runs one search and returns every deterministic
// output surface: the report, the zero-duration manifest, and the
// encoded final search state.
func optimizeArtifacts(t *testing.T, opts OptimizeOptions) (report, manifest, state []byte, res *OptimizeResult) {
	t.Helper()
	reg := telemetry.New()
	opts.Metrics = reg
	res, err := RunOptimizeContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	if err := WriteOptimizeReport(&rep, res); err != nil {
		t.Fatal(err)
	}
	m, err := reg.Snapshot(telemetry.SnapshotOptions{Seed: opts.SearchSeed, ZeroDurations: true})
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	if err := m.WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	return rep.Bytes(), mb.Bytes(), res.State, res
}

// TestOptimizeWorkersEqualityMatrix pins the determinism contract:
// the same seed, objective, and budget must produce byte-identical
// reports, manifests, and search states at workers 1, 2, and 8 —
// across both strategies and both RIB store layouts. The evaluation
// work is pinned too: the decision runs and rewinds are the figures
// the snapshot-restore evaluator produced before the undo journal
// replaced it.
func TestOptimizeWorkersEqualityMatrix(t *testing.T) {
	wantRuns := map[string]int64{"hillclimb": 3513, "evolve": 6826}
	for _, strategy := range []string{"hillclimb", "evolve"} {
		for _, arena := range []bool{false, true} {
			var baseRep, baseMan, baseState []byte
			for _, w := range []int{1, 2, 8} {
				opts := optTestOptions(strategy, w)
				opts.Survey.Topology.CompactRIB = arena
				rep, man, state, res := optimizeArtifacts(t, opts)
				if res.Evaluated != opts.Budget {
					t.Fatalf("%s arena=%v workers=%d: evaluated %d, want %d",
						strategy, arena, w, res.Evaluated, opts.Budget)
				}
				if res.EvalDecisionRuns != wantRuns[strategy] || res.WarmRestores != 11 {
					t.Fatalf("%s arena=%v workers=%d: %d decision runs and %d rewinds, want %d and 11",
						strategy, arena, w, res.EvalDecisionRuns, res.WarmRestores, wantRuns[strategy])
				}
				if baseRep == nil {
					baseRep, baseMan, baseState = rep, man, state
					continue
				}
				if !bytes.Equal(rep, baseRep) {
					t.Errorf("%s arena=%v: report at workers=%d differs from workers=1:\n%s\nvs\n%s",
						strategy, arena, w, rep, baseRep)
				}
				if !bytes.Equal(man, baseMan) {
					t.Errorf("%s arena=%v: manifest at workers=%d differs from workers=1:\n%s\nvs\n%s",
						strategy, arena, w, man, baseMan)
				}
				if !bytes.Equal(state, baseState) {
					t.Errorf("%s arena=%v: search state at workers=%d differs from workers=1",
						strategy, arena, w)
				}
			}
		}
	}
}

// TestOptimizeBestMonotone: against the real evaluator, the best-so-far
// score never decreases across generations, for both strategies.
func TestOptimizeBestMonotone(t *testing.T) {
	for _, strategy := range []string{"hillclimb", "evolve"} {
		_, _, _, res := optimizeArtifacts(t, optTestOptions(strategy, 4))
		prev := -1.0
		for _, p := range res.Trajectory {
			if p.BestScore < prev {
				t.Fatalf("%s: best score decreased at generation %d: %v -> %v",
					strategy, p.Generation, prev, p.BestScore)
			}
			prev = p.BestScore
		}
		if res.Best.Score != prev {
			t.Fatalf("%s: result best %v != trajectory end %v", strategy, res.Best.Score, prev)
		}
	}
}

// convergedDriver builds and converges the optimizer's pristine world
// and returns it with its snapshot.
func convergedDriver(t *testing.T, opts OptimizeOptions) (*Survey, []byte) {
	t.Helper()
	driver := convergeWorlds(opts, 1)[0]
	var snap bytes.Buffer
	if err := driver.Eco.Net.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	return driver, snap.Bytes()
}

// TestOptimizePoolWorldsMatchDriver holds "any world serves any
// candidate" as a checked fact: the evaluation worlds RunOptimizeContext
// builds and converges side by side each encode, once forked and before
// their first rewind, the RBGP snapshot the driver encodes at the
// pristine fork point, byte for byte.
func TestOptimizePoolWorldsMatchDriver(t *testing.T) {
	opts := optTestOptions("evolve", 2)
	obj, err := optimize.ParseSpec(opts.Objective)
	if err != nil {
		t.Fatal(err)
	}
	worlds := convergeWorlds(opts, parallel.Workers(opts.Workers))
	var base bytes.Buffer
	if err := worlds[0].Eco.Net.Snapshot(&base); err != nil {
		t.Fatal(err)
	}
	ev, err := newPolicyEvaluator(opts.Metrics, obj, worlds)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.pool) != 2 {
		t.Fatalf("evaluator holds %d worlds, want 2", len(ev.pool))
	}
	for i := 0; i < 2; i++ {
		s := <-ev.pool
		var snap bytes.Buffer
		if err := s.Eco.Net.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap.Bytes(), base.Bytes()) {
			t.Fatalf("pooled world %d snapshots %d bytes unlike the driver's pristine %d",
				i, snap.Len(), base.Len())
		}
	}
}

// TestOptimizeEvaluationPreservesPristine is the evaluator's purity
// property and the journal's differential against the snapshot it
// replaced, on both RIB stores. Every candidate evaluated by journal
// rewind observes exactly what the same candidate observes on a world
// restored from the pristine snapshot; after every evaluation the
// rewound driver re-snapshots byte-identical to the pristine snapshot;
// re-evaluating the candidates in reverse repeats every observation;
// and a freshly converged world — what a further evaluation slot
// forks from — snapshots to the same bytes.
func TestOptimizeEvaluationPreservesPristine(t *testing.T) {
	for _, arena := range []bool{false, true} {
		opts := optTestOptions("hillclimb", 1)
		opts.Survey.Topology.CompactRIB = arena
		// The probe objective, so the probe fields are compared too.
		obj, err := optimize.ParseSpec("probe:re=0.5,commodity=0.3,loss=0.2")
		if err != nil {
			t.Fatal(err)
		}
		driver, baseSnap := convergedDriver(t, opts)
		if _, again := convergedDriver(t, opts); !bytes.Equal(again, baseSnap) {
			t.Fatalf("arena=%v: two converged worlds snapshot differently", arena)
		}
		d0 := ribDigest(driver.Eco, nil)
		ev, err := newPolicyEvaluator(opts.Metrics, obj, []*Survey{driver})
		if err != nil {
			t.Fatal(err)
		}

		rng := parallel.Rand(99, 0)
		cands := make([]optimize.Candidate, 12)
		first := make([]optimize.Eval, len(cands))
		for i := range cands {
			cands[i] = optimize.Random(rng)
			got, err := ev.Evaluate(context.Background(), cands[i])
			if err != nil {
				t.Fatalf("candidate %d (%s): %v", i, cands[i].Label(), err)
			}
			// The restore path, on a fresh world each time: localpref
			// overrides are fingerprinted, so a world a candidate
			// changed no longer accepts the snapshot.
			ref := NewSurvey(opts.Survey)
			if err := ev.fork(ref); err != nil {
				t.Fatal(err)
			}
			ref.Eco.Net.CloseJournal()
			if err := bgp.RestoreNetwork(bytes.NewReader(baseSnap), ref.Eco.Net); err != nil {
				t.Fatal(err)
			}
			want, err := ev.measure(&evalWorld{Survey: ref}, cands[i], ref.Eco.Net.Stats())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("arena=%v candidate %d (%s): journal %+v != restore %+v",
					arena, i, cands[i].Label(), got, want)
			}
			first[i] = got
			if err := ev.rewind(driver); err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := driver.Eco.Net.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), baseSnap) {
				t.Fatalf("arena=%v candidate %d (%s): rewound snapshot differs from the pristine one",
					arena, i, cands[i].Label())
			}
		}
		for i := len(cands) - 1; i >= 0; i-- {
			e, err := ev.Evaluate(context.Background(), cands[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(e, first[i]) {
				t.Fatalf("arena=%v candidate %d (%s): second evaluation %+v != first %+v",
					arena, i, cands[i].Label(), e, first[i])
			}
		}
		if err := ev.rewind(driver); err != nil {
			t.Fatal(err)
		}
		if d := ribDigest(driver.Eco, nil); d != d0 {
			t.Fatalf("arena=%v: post-rewind RIB digest %x != pristine %x", arena, d, d0)
		}
	}
}

// TestOptimizeProbeCensusMatchesObserve holds the optimizer's probe
// census, which reads one observation per prefix off the prober's
// record layout into a reused buffer, to the full reduction: for
// several candidates at -small, its counts equal those of
// Observe([]*probe.Round{round}, 0) over a fresh Run of the same round,
// and the buffer it filled deep-equals that round.
func TestOptimizeProbeCensusMatchesObserve(t *testing.T) {
	opts := optTestOptions("hillclimb", 1)
	obj, err := optimize.ParseSpec("probe:re=0.5,commodity=0.3,loss=0.2")
	if err != nil {
		t.Fatal(err)
	}
	driver, _ := convergedDriver(t, opts)
	ev, err := newPolicyEvaluator(opts.Metrics, obj, []*Survey{driver})
	if err != nil {
		t.Fatal(err)
	}
	rng := parallel.Rand(46, 0)
	var re, com int
	for i := 0; i < 8; i++ {
		c := optimize.Random(rng)
		if i == 0 {
			c = optimize.Baseline()
		}
		got, err := ev.Evaluate(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		// Evaluate leaves the world as the census saw it.
		round := driver.Prober.Run("opt", driver.Eco.Net.Now(), driver.Sel)
		var want optimize.Eval
		for _, row := range Observe([]*probe.Round{round}, 0) {
			switch row.Seq[0] {
			case ObsRE:
				want.ProbeRE++
			case ObsCommodity:
				want.ProbeCommodity++
			case ObsMixed:
				want.ProbeMixed++
			default:
				want.ProbeLoss++
			}
		}
		if got.ProbeRE != want.ProbeRE || got.ProbeCommodity != want.ProbeCommodity ||
			got.ProbeMixed != want.ProbeMixed || got.ProbeLoss != want.ProbeLoss {
			t.Fatalf("candidate %d (%s): census re/commodity/mixed/loss %d/%d/%d/%d, Observe gives %d/%d/%d/%d",
				i, c.Label(), got.ProbeRE, got.ProbeCommodity, got.ProbeMixed, got.ProbeLoss,
				want.ProbeRE, want.ProbeCommodity, want.ProbeMixed, want.ProbeLoss)
		}
		w := <-ev.pool
		if !reflect.DeepEqual(&w.census, round) {
			t.Fatalf("candidate %d (%s): the census buffer differs from a fresh Run", i, c.Label())
		}
		ev.pool <- w
		re += got.ProbeRE
		com += got.ProbeCommodity
	}
	if re == 0 || com == 0 {
		t.Errorf("censuses saw %d R&E and %d commodity prefixes in all: the candidates test one catchment", re, com)
	}
}

// mallocs counts the heap allocations f makes.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestOptimizeRewindAllocs bounds what one warm rewind allocates after
// a typical candidate: with the journal's logs reused it is a handful
// of allocations, where a snapshot decode of the same world made
// thousands.
func TestOptimizeRewindAllocs(t *testing.T) {
	for _, arena := range []bool{false, true} {
		opts := optTestOptions("hillclimb", 1)
		opts.Survey.Topology.CompactRIB = arena
		obj, err := optimize.ParseSpec(opts.Objective)
		if err != nil {
			t.Fatal(err)
		}
		driver, baseSnap := convergedDriver(t, opts)
		ev, err := newPolicyEvaluator(opts.Metrics, obj, []*Survey{driver})
		if err != nil {
			t.Fatal(err)
		}
		rng := parallel.Rand(5, 0)
		var worst uint64
		for i := 0; i < 8; i++ {
			if _, err := ev.Evaluate(context.Background(), optimize.Random(rng)); err != nil {
				t.Fatal(err)
			}
			if i < 3 {
				continue // let the logs grow to a candidate's size first
			}
			var err error
			if n := mallocs(func() { err = ev.rewind(driver) }); n > worst {
				worst = n
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		ref := NewSurvey(opts.Survey)
		restore := mallocs(func() { err = bgp.RestoreNetwork(bytes.NewReader(baseSnap), ref.Eco.Net) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("arena=%v: worst rewind %d allocations; one snapshot restore %d", arena, worst, restore)
		if worst > 16 {
			t.Fatalf("arena=%v: a rewind made %d allocations (ceiling 16)", arena, worst)
		}
	}
}

// TestOptimizeZeroBudget: a zero-budget run returns the baseline
// configuration with no search evaluations.
func TestOptimizeZeroBudget(t *testing.T) {
	opts := optTestOptions("hillclimb", 2)
	opts.Budget = 0
	res, err := RunOptimizeContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Candidate != optimize.Baseline() {
		t.Fatalf("zero budget returned %v, want baseline", res.Best.Candidate.Genes)
	}
	if res.Evaluated != 0 || len(res.Trajectory) != 0 {
		t.Fatalf("zero budget evaluated %d candidates, trajectory %v", res.Evaluated, res.Trajectory)
	}
	if res.Best.Score != res.BaselineScore {
		t.Fatalf("zero-budget best score %v != baseline score %v", res.Best.Score, res.BaselineScore)
	}
	var rep bytes.Buffer
	if err := WriteOptimizeReport(&rep, res); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeWarmStartSavings pins the acceptance criterion: a warm
// evaluation (rewind the journal, apply the delta) must cost at least
// 3x fewer decision evaluations than building and converging a fresh
// world per candidate would. Convergence is deterministic, so that cold
// cost is one world's convergence per evaluation plus the same deltas.
func TestOptimizeWarmStartSavings(t *testing.T) {
	opts := optTestOptions("evolve", 2)
	opts.Budget = 4
	warm, err := RunOptimizeContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	w := NewSurvey(opts.Survey)
	st0 := w.Eco.Net.Stats()
	NewSURFExperiment(w.Eco, w.World, w.Prober, w.Sel, optStart).Converge()
	converge := w.Eco.Net.Stats().DecisionRuns - st0.DecisionRuns
	evals := warm.WarmRestores - 1 // the last rewind only resets the driver
	cold := evals*converge + warm.EvalDecisionRuns
	t.Logf("%d evaluations: warm %d decision runs, cold %d (%d per convergence)", evals, warm.EvalDecisionRuns, cold, converge)
	if evals < 1 || cold < 3*warm.EvalDecisionRuns {
		t.Fatalf("warm start saved too little: warm %d decision runs vs cold %d (< 3x)",
			warm.EvalDecisionRuns, cold)
	}
}

// TestOptimizeReachesTarget pins the search's usefulness: for a target
// catchment split far from the baseline, a modest budget must find a
// configuration that closes most of the gap.
func TestOptimizeReachesTarget(t *testing.T) {
	for _, strategy := range []string{"hillclimb", "evolve"} {
		opts := optTestOptions(strategy, 4)
		opts.Budget = 12
		res, err := RunOptimizeContext(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Score <= res.BaselineScore {
			t.Fatalf("%s: best %v no better than baseline %v", strategy, res.Best.Score, res.BaselineScore)
		}
		if res.Best.Score < 0.65 {
			t.Fatalf("%s: best score %v did not approach the re=0.3 target (baseline %v)",
				strategy, res.Best.Score, res.BaselineScore)
		}
		if res.Best.Candidate == optimize.Baseline() {
			t.Fatalf("%s: search claims improvement but returned the baseline config", strategy)
		}
	}
}

// TestOptimizeCheckpointResume: resuming from a mid-search checkpoint
// blob reproduces the one-shot run's final state bit-exactly.
func TestOptimizeCheckpointResume(t *testing.T) {
	opts := optTestOptions("evolve", 2)
	var blobs [][]byte
	opts.Progress = func(OptimizeProgress) {}
	opts.Checkpoint = func(state []byte, _ OptimizeProgress) {
		blobs = append(blobs, append([]byte(nil), state...))
	}
	full, err := RunOptimizeContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != full.Generations {
		t.Fatalf("got %d checkpoints for %d generations", len(blobs), full.Generations)
	}

	resumeOpts := optTestOptions("evolve", 8)
	resumeOpts.Resume = blobs[0]
	resumed, err := RunOptimizeContext(context.Background(), resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed.State, full.State) {
		t.Fatal("resumed final search state differs from the one-shot run")
	}
	if resumed.Best != full.Best {
		t.Fatalf("resumed best %+v != one-shot best %+v", resumed.Best, full.Best)
	}

	// A checkpoint from a different search must be refused.
	other := optTestOptions("hillclimb", 2)
	other.Resume = blobs[0]
	if _, err := RunOptimizeContext(context.Background(), other); err == nil {
		t.Fatal("resume accepted a checkpoint from a different strategy")
	}
}

// TestOptimizePipelineWiring: the pipeline derives the optimize
// configuration from the session seed and options.
func TestOptimizePipelineWiring(t *testing.T) {
	p := JobOptions{Small: true, Seed: 11, Workers: 3,
		Objective: "catchment:re=0.4", Budget: 9, Strategy: "evolve"}.Pipeline(nil)
	opts := p.OptimizeOptions()
	if opts.Objective != "catchment:re=0.4" || opts.Budget != 9 || opts.Strategy != "evolve" {
		t.Fatalf("pipeline options not threaded: %+v", opts)
	}
	if opts.Workers != 3 {
		t.Fatalf("workers not threaded: %+v", opts)
	}
	if want := parallel.SubSeed(11, optimizeSeedStream); opts.SearchSeed != want {
		t.Fatalf("search seed %d, want SubSeed(11, optimizeSeedStream) = %d", opts.SearchSeed, want)
	}
	if NewPipeline().Strategy() != "hillclimb" {
		t.Fatal("default strategy is not hillclimb")
	}
}
