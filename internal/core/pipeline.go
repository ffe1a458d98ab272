package core

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// Pipeline is the single construction path for surveys, experiments,
// and fault sweeps. Front ends describe the run as a JobOptions and
// build it with JobOptions.Pipeline; code that needs an explicit
// survey configuration uses NewPipeline's functional options. Either
// way the pipeline hands out fully wired components:
//
//	p := core.JobOptions{Small: true, Seed: 1, Workers: 4}.Pipeline(reg)
//	s := p.NewSurvey()
//	s.RunBoth()
//
// Seed derivation: the pipeline holds ONE session seed. Everything
// else derives from it deterministically — the topology generator uses
// it directly, the world's probe-loss streams use cfg.Seed+1 split
// per (round, prefix) via parallel.SubSeed, one RNG per probe shard
// reseeded to each prefix's stream (see simnet.World.LossStream),
// and the fault sweep's schedule seed is
// parallel.SubSeed(seed, faultSeedStream). Bare seed parameters that
// predate the pipeline (simnet.World.InjectDormancy) keep their own
// documented conventions but are fed from options threaded through
// here rather than ad-hoc constants.
type Pipeline struct {
	// job is the run; the pipeline assumes it passed Validate.
	job JobOptions
	// survey is WithSurvey's configuration until NewPipeline resolves
	// it, then the survey configuration everything is built from.
	survey *SurveyOptions
	// seedSet records that job.Seed overrides the survey's own seed.
	seedSet bool
	metrics *telemetry.Registry
}

// PipelineOption configures a Pipeline; options are applied by
// NewPipeline and are order-independent (each sets an independent
// field; derived values resolve after all options run).
type PipelineOption func(*Pipeline)

// WithSurvey uses an explicit survey configuration instead of the
// scale defaults. It overrides WithSmall; WithSeed still overrides the
// topology seed inside it.
func WithSurvey(opts SurveyOptions) PipelineOption {
	return func(p *Pipeline) { p.survey = &opts }
}

// WithSmall selects the reduced test-scale ecosystem
// (SmallSurveyOptions) instead of the paper-scale default.
func WithSmall() PipelineOption {
	return func(p *Pipeline) { p.job.Small = true }
}

// WithSeed sets the session seed every stochastic component derives
// from (see the Pipeline doc for the derivation map).
func WithSeed(seed int64) PipelineOption {
	return func(p *Pipeline) { p.job.Seed, p.seedSet = seed, true }
}

// WithWorkers bounds the shard workers of every parallel loop the
// pipeline drives (probing, classification, fault-sweep points);
// n <= 0 means GOMAXPROCS. Output is identical for any value.
func WithWorkers(n int) PipelineOption {
	return func(p *Pipeline) { p.job.Workers = n }
}

// WithScenario selects an adversarial scenario family (hijack, leak —
// see faults.ScenarioNames) for the pipeline's scenario sweep.
func WithScenario(name string) PipelineOption {
	return func(p *Pipeline) { p.job.Scenario = name }
}

// WithMetrics instruments everything the pipeline constructs with the
// registry (nil keeps telemetry disabled at zero cost) and records the
// resolved worker count for the run manifest.
func WithMetrics(reg *telemetry.Registry) PipelineOption {
	return func(p *Pipeline) { p.metrics = reg }
}

// faultSeedStream is the parallel.SubSeed stream id reserved for
// deriving the fault-sweep schedule seed from the session seed, so a
// different session seed yields a different (but reproducible) fault
// schedule without a second flag.
const faultSeedStream = 0xFA17

// scenarioSeedStream and rovSeedStream likewise derive the scenario
// schedule seed (attacker/leaker draw, event timing) and the ROV
// deployment draw seed from the session seed.
const (
	scenarioSeedStream = 0x5CE0
	rovSeedStream      = 0x40A1
)

// NewPipeline resolves the options into a ready pipeline.
func NewPipeline(opts ...PipelineOption) *Pipeline {
	p := &Pipeline{}
	for _, o := range opts {
		o(p)
	}
	return p.resolve()
}

// resolve fixes the survey configuration: WithSurvey's, else the
// topology tier the job names (Scale over Small, paper scale by
// default), with the session seed written in when one was given.
func (p *Pipeline) resolve() *Pipeline {
	s := DefaultSurveyOptions()
	switch tier, err := topo.ParseScale(p.job.Scale); {
	case p.survey != nil:
		s = *p.survey // a copy: one WithSurvey option may build many pipelines
	case err == nil:
		s.Topology = tier.Config()
	case p.job.Small:
		s.Topology = topo.SmallConfig()
	}
	if p.seedSet {
		s.Topology.Seed = p.job.Seed
	}
	p.survey = &s
	return p
}

// Seed returns the resolved session (topology) seed.
func (p *Pipeline) Seed() int64 { return p.survey.Topology.Seed }

// SurveyOptions returns the resolved survey configuration.
func (p *Pipeline) SurveyOptions() SurveyOptions { return *p.survey }

// NewSurvey builds a fully wired survey: world, seed selection,
// prober, metrics, and worker bounds, all from the pipeline options.
func (p *Pipeline) NewSurvey() *Survey {
	s := NewSurvey(*p.survey)
	s.Workers = p.job.Workers
	s.Prober.Workers = p.job.Workers
	if p.metrics != nil {
		s.SetMetrics(p.metrics)
		p.metrics.SetWorkers(parallel.Workers(p.job.Workers))
	}
	return s
}

// OpenSurvey builds the pipeline's survey (NewSurvey) and, when
// resumeDir is set, continues the newest checkpoint there that a run
// with fingerprint fp can use (LatestCheckpoint, which passes note a
// line per skipped file): engine state into the new world, telemetry
// state into the pipeline's registry, progress into the survey's
// Resume. Without one the survey starts cold. It returns the number
// of checkpoints skipped as unusable.
func (p *Pipeline) OpenSurvey(resumeDir string, fp CheckpointFingerprint, note func(string)) (*Survey, int, error) {
	// The world is built before a checkpoint is chosen, because choosing
	// one means restoring its engine section into this network — the
	// only check that the checkpoint belongs to this topology. The
	// build span is held aside and joins the registry only on a cold
	// start: a checkpoint's telemetry already carries the original
	// run's, and re-recording it would duplicate the span.
	reg, buildReg := p.metrics, telemetry.New()
	buildSpan := buildReg.StartSpan("build")
	s := p.NewSurvey()
	buildSpan.End()

	var ck *Checkpoint
	var corrupt int
	if resumeDir != "" {
		var err error
		ck, corrupt, err = LatestCheckpoint(resumeDir, fp, s.Eco.Net, note)
		// A missing directory is a cold start like an empty one.
		if err != nil && !os.IsNotExist(err) && note != nil {
			note(fmt.Sprintf("resume: %v", err))
		}
	}
	if ck == nil {
		reg.Merge(buildReg)
		return s, corrupt, nil
	}
	s.Resume = ck
	if reg != nil && len(ck.Telemetry) > 0 {
		open, err := reg.LoadState(bytes.NewReader(ck.Telemetry))
		if err != nil {
			return nil, corrupt, fmt.Errorf("resume: restore telemetry state: %w", err)
		}
		// The innermost open span is the in-flight experiment's.
		if len(open) > 0 {
			ck.span = open[len(open)-1]
		}
		// The saved state carries the saved run's worker count; the
		// manifest reports this run's.
		reg.SetWorkers(parallel.Workers(p.job.Workers))
	}
	return s, corrupt, nil
}

// FaultSweepOptions returns the sweep configuration the pipeline
// implies: reduced-scale worlds carrying the session topology seed, a
// schedule seed derived via parallel.SubSeed(seed, faultSeedStream),
// the intensity ladder up to the job's Faults, and the pipeline's
// worker bound and registry.
func (p *Pipeline) FaultSweepOptions() FaultSweepOptions {
	fopts := DefaultFaultSweepOptions()
	fopts.Survey.Topology.Seed = p.Seed()
	fopts.FaultSeed = parallel.SubSeed(p.Seed(), faultSeedStream)
	if p.job.Faults > 0 {
		fopts.Intensities = SweepIntensities(p.job.Faults)
	}
	fopts.Metrics = p.metrics
	fopts.Workers = p.job.Workers
	return fopts
}

// RunFaultSweepContext runs the fault-intensity sweep the pipeline
// implies (see FaultSweepOptions and the package-level
// RunFaultSweepContext); per-job deadlines and cancellation stop it
// between rounds.
func (p *Pipeline) RunFaultSweepContext(ctx context.Context) ([]FaultSweepPoint, error) {
	return RunFaultSweepContext(ctx, p.FaultSweepOptions())
}

// Strategy returns the optimizer's search strategy (defaulted to
// "hillclimb" when unset).
func (p *Pipeline) Strategy() string {
	if p.job.Strategy == "" {
		return "hillclimb"
	}
	return p.job.Strategy
}

// OptimizeOptions returns the policy-optimization configuration the
// pipeline implies: the session survey, the search seed derived via
// parallel.SubSeed(seed, optimizeSeedStream), and the pipeline's
// objective, budget, strategy, worker bound, and registry.
func (p *Pipeline) OptimizeOptions() OptimizeOptions {
	return OptimizeOptions{
		Survey:     *p.survey,
		Objective:  p.job.Objective,
		Strategy:   p.Strategy(),
		Budget:     p.job.Budget,
		Workers:    p.job.Workers,
		SearchSeed: parallel.SubSeed(p.Seed(), optimizeSeedStream),
		Metrics:    p.metrics,
	}
}

// RunOptimizeContext runs the policy-optimization search the pipeline
// implies (see OptimizeOptions).
func (p *Pipeline) RunOptimizeContext(ctx context.Context) (*OptimizeResult, error) {
	return RunOptimizeContext(ctx, p.OptimizeOptions())
}

// ScenarioSweepOptions returns the scenario-sweep configuration the
// pipeline implies: the session topology seed, schedule and
// deployment seeds derived via parallel.SubSeed, the adoption ladder
// capped at the job's ROV fraction (0 = the full default ladder), and the
// pipeline's worker bound and registry.
func (p *Pipeline) ScenarioSweepOptions() ScenarioSweepOptions {
	sopts := DefaultScenarioSweepOptions(p.job.Scenario)
	sopts.Survey.Topology.Seed = p.Seed()
	sopts.ScenarioSeed = parallel.SubSeed(p.Seed(), scenarioSeedStream)
	sopts.ROVSeed = parallel.SubSeed(p.Seed(), rovSeedStream)
	if p.job.ROV > 0 {
		sopts.Adoptions = ScenarioAdoptions(p.job.ROV)
	}
	sopts.Metrics = p.metrics
	sopts.Workers = p.job.Workers
	return sopts
}

// RunScenarioSweepContext runs the scenario sweep the pipeline implies
// (see ScenarioSweepOptions).
func (p *Pipeline) RunScenarioSweepContext(ctx context.Context) ([]ScenarioPoint, error) {
	return RunScenarioSweepContext(ctx, p.ScenarioSweepOptions())
}

// ScenarioAdoptions selects the adoption ladder for a max fraction:
// the default ladder truncated at max, with max itself as the final
// point.
func ScenarioAdoptions(max float64) []float64 {
	var out []float64
	for _, a := range DefaultScenarioSweepOptions(faults.ScenarioHijack).Adoptions {
		if a < max {
			out = append(out, a)
		}
	}
	return append(out, max)
}

// SweepIntensities selects the fault-sweep points for a max intensity:
// the default ladder truncated at max, with max itself as the final
// point.
func SweepIntensities(max float64) []float64 {
	var out []float64
	for _, i := range DefaultFaultSweepOptions().Intensities {
		if i < max {
			out = append(out, i)
		}
	}
	return append(out, max)
}
