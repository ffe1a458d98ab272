// Package cliconf is the shared flag surface of the reproduction's
// binaries. cmd/resurvey, cmd/reprobe, and cmd/reinfer used to parse
// -seed, -faults, -manifest, -metrics (and now -workers) each with
// their own copies; cliconf registers them once with identical names,
// semantics, and validation, and converts the parsed Config into
// core.Pipeline options so every binary constructs its pipeline the
// same way.
package cliconf

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/optimize"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/vtime"
)

// Config holds the shared flag values: the run itself (JobOptions)
// plus the front-end concerns only a command line has. Commands embed
// it in their own options struct and register the subset of flags they
// support; field values at Register time become the flag defaults, so
// a command can keep its historical defaults (reprobe defaults -small
// to true).
type Config struct {
	JobOptions
	Manifest string
	Metrics  bool
	ZeroTime bool
	// SnapshotDir and Resume drive checkpoint/restart (FlagSnapshot):
	// with -snapshot-dir the run writes an engine+telemetry checkpoint
	// after every configuration round; with -resume it continues from
	// the newest valid checkpoint there instead of starting cold.
	SnapshotDir string
	Resume      bool
}

// JobOptions is the portable description of one pipeline run — the
// configuration fields with run semantics, separated from Config's
// front-end concerns (manifest paths, metrics dumps, checkpoint
// directories). The CLI flags bind straight into the JobOptions a
// Config embeds, and resurveyd job submissions unmarshal into it
// directly, so both front ends validate and construct a run through
// the identical path.
type JobOptions struct {
	Small bool `json:"small,omitempty"`
	// Scale names the topology size tier (small, paper, internet);
	// empty defers to Small. See topo.ParseScale.
	Scale   string  `json:"scale,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	Workers int     `json:"workers,omitempty"`
	Faults  float64 `json:"faults,omitempty"`
	// Workload selects a named virtual-clock workload (see
	// core.WorkloadNames); empty runs the standard survey script.
	Workload string `json:"workload,omitempty"`
	// DurationSeconds bounds the workload's virtual horizon; 0 uses
	// the named workload's default.
	DurationSeconds int64 `json:"duration_seconds,omitempty"`
	// RoundMode quantizes the workload to round boundaries (the
	// compatibility scheduler) instead of event-granularity timers.
	RoundMode bool `json:"round_mode,omitempty"`
	// Scenario selects an adversarial scenario family (see
	// faults.ScenarioNames) swept over ROV adoption; empty disables.
	Scenario string `json:"scenario,omitempty"`
	// ROV is the RPKI route-origin-validation adoption fraction in
	// [0, 1]: the adoption-ladder cap for scenario sweeps, the
	// deployed fraction for workload runs (0 = off). Validate rejects
	// it on any other run.
	ROV float64 `json:"rov,omitempty"`
	// Objective selects a policy-optimization search run targeting the
	// given spec (see optimize.ParseSpec); empty disables.
	Objective string `json:"objective,omitempty"`
	// Budget bounds the search's candidate evaluations (0 scores only
	// the baseline configuration).
	Budget int `json:"budget,omitempty"`
	// Strategy names the searcher ("hillclimb" or "evolve"); empty
	// means hillclimb.
	Strategy string `json:"strategy,omitempty"`
}

// WorkloadOptions converts the job's workload fields into the core
// run options (zero value when no workload is selected).
func (j JobOptions) WorkloadOptions() core.WorkloadOptions {
	return core.WorkloadOptions{
		Name:      j.Workload,
		Duration:  vtime.Time(j.DurationSeconds),
		RoundMode: j.RoundMode,
	}
}

// Fingerprint is the checkpoint compatibility key of a survey run of
// the job repeated over nSeeds seeds (worker count excluded — see
// core.CheckpointFingerprint).
func (j JobOptions) Fingerprint(nSeeds int) core.CheckpointFingerprint {
	return core.CheckpointFingerprint{
		Seed:   j.Seed,
		Small:  j.Small,
		Faults: j.Faults,
		NSeeds: nSeeds,
	}
}

// Validate rejects job values the pipeline cannot honour — the single
// check both the flag layer and the service's submission endpoint run,
// so a config the CLI rejects is rejected by the server with the same
// message, and vice versa.
func (j JobOptions) Validate() error {
	if math.IsNaN(j.Faults) || math.IsInf(j.Faults, 0) || j.Faults < 0 || j.Faults > 1 {
		return fmt.Errorf("-faults intensity %v out of range: want 0 (off) or a value in (0, 1]", j.Faults)
	}
	if j.Scale != "" {
		s, err := topo.ParseScale(j.Scale)
		if err != nil {
			return err
		}
		if j.Small && s != topo.ScaleSmall {
			return fmt.Errorf("-small conflicts with -scale %s", s)
		}
	}
	if j.Workers < 0 {
		return fmt.Errorf("-workers %d out of range: want >= 0 (0 = GOMAXPROCS)", j.Workers)
	}
	if j.Workload != "" && !core.KnownWorkload(j.Workload) {
		return fmt.Errorf("-workload %q unknown: want one of %v", j.Workload, core.WorkloadNames())
	}
	if j.DurationSeconds < 0 {
		return fmt.Errorf("-duration %d out of range: want >= 0 (0 = workload default)", j.DurationSeconds)
	}
	if j.DurationSeconds > 0 && j.Workload == "" {
		return fmt.Errorf("-duration requires -workload")
	}
	if j.Scenario != "" && !faults.KnownScenario(j.Scenario) {
		return fmt.Errorf("-scenario %q unknown: want one of %v", j.Scenario, faults.ScenarioNames())
	}
	if j.Scenario != "" && j.Workload != "" {
		return fmt.Errorf("-scenario conflicts with -workload (pick one run mode)")
	}
	if math.IsNaN(j.ROV) || math.IsInf(j.ROV, 0) || j.ROV < 0 || j.ROV > 1 {
		return fmt.Errorf("-rov fraction %v out of range: want a value in [0, 1]", j.ROV)
	}
	if j.ROV > 0 && j.Scenario == "" && j.Workload == "" {
		return fmt.Errorf("-rov requires -scenario or -workload")
	}
	if j.Objective != "" {
		if _, err := optimize.ParseSpec(j.Objective); err != nil {
			return err
		}
		if j.Workload != "" {
			return fmt.Errorf("-objective conflicts with -workload (pick one run mode)")
		}
		if j.Scenario != "" {
			return fmt.Errorf("-objective conflicts with -scenario (pick one run mode)")
		}
	}
	if j.Budget < 0 {
		return fmt.Errorf("-budget %d out of range: want >= 0 (0 = score the baseline only)", j.Budget)
	}
	if j.Budget > 0 && j.Objective == "" {
		return fmt.Errorf("-budget requires -objective")
	}
	if j.Strategy != "" {
		if _, err := optimize.NewSearcher(j.Strategy); err != nil {
			return err
		}
		if j.Objective == "" {
			return fmt.Errorf("-strategy requires -objective")
		}
	}
	return nil
}

// Pipeline builds the core.Pipeline the job describes, wiring reg (nil
// is fine) as the metrics sink.
func (j JobOptions) Pipeline(reg *telemetry.Registry) *core.Pipeline {
	opts := []core.PipelineOption{
		core.WithSeed(j.Seed),
		core.WithWorkers(j.Workers),
		core.WithFaults(j.Faults),
		core.WithScenario(j.Scenario),
		core.WithROV(j.ROV),
		core.WithMetrics(reg),
	}
	if j.Small {
		opts = append(opts, core.WithSmall())
	}
	if j.Scale != "" {
		// Validate has already vetted the name; ParseScale cannot fail
		// here, and WithScale overrides WithSmall inside the pipeline.
		if s, err := topo.ParseScale(j.Scale); err == nil {
			opts = append(opts, core.WithScale(s))
		}
	}
	if j.Objective != "" {
		opts = append(opts,
			core.WithObjective(j.Objective),
			core.WithBudget(j.Budget),
			core.WithStrategy(j.Strategy))
	}
	return core.NewPipeline(opts...)
}

// Flags selects which shared flags Register installs.
type Flags uint

const (
	// FlagSmall registers -small.
	FlagSmall Flags = 1 << iota
	// FlagSeed registers -seed.
	FlagSeed
	// FlagWorkers registers -workers.
	FlagWorkers
	// FlagFaults registers -faults.
	FlagFaults
	// FlagObservability registers -manifest, -metrics, and -zerotime.
	FlagObservability
	// FlagSnapshot registers -snapshot-dir and -resume. Not part of
	// FlagAll: only commands that implement checkpointing (resurvey)
	// opt in.
	FlagSnapshot
	// FlagWorkload registers -workload, -duration, and -round. Not
	// part of FlagAll: only commands that run virtual-clock workloads
	// (resurvey) opt in.
	FlagWorkload
	// FlagScenario registers -scenario and -rov. Not part of FlagAll:
	// only commands that run adversarial scenario sweeps (resurvey)
	// opt in.
	FlagScenario
	// FlagOptimize registers -objective, -budget, and -strategy. Not
	// part of FlagAll: only commands that run policy-optimization
	// searches (reoptimize) opt in.
	FlagOptimize

	// FlagAll registers every shared flag.
	FlagAll = FlagSmall | FlagSeed | FlagWorkers | FlagFaults | FlagObservability
)

// Register installs the selected shared flags on fs, with defaults
// taken from c's current field values.
func Register(fs *flag.FlagSet, c *Config, which Flags) {
	if which&FlagSmall != 0 {
		fs.BoolVar(&c.Small, "small", c.Small, "run the reduced-scale ecosystem")
		fs.StringVar(&c.Scale, "scale", c.Scale, "topology size tier: small, paper, or internet (~80K ASes / ~1M prefixes on the compact arena RIB); overrides -small, empty keeps the default")
	}
	if which&FlagSeed != 0 {
		fs.Int64Var(&c.Seed, "seed", c.Seed, "session seed: drives topology generation and every derived stream (probe loss, fault schedules)")
	}
	if which&FlagWorkers != 0 {
		fs.IntVar(&c.Workers, "workers", c.Workers, "parallel shard workers for probing, classification, and the fault sweep (0 = GOMAXPROCS); output is byte-identical at any worker count")
	}
	if which&FlagFaults != 0 {
		fs.Float64Var(&c.Faults, "faults", c.Faults, "max fault intensity in (0, 1]: run the fault-intensity sweep (reduced scale) up to this intensity; 0 disables")
	}
	if which&FlagSnapshot != 0 {
		fs.StringVar(&c.SnapshotDir, "snapshot-dir", c.SnapshotDir, "write a checkpoint (engine state, partial survey results, telemetry registry) to this directory after every configuration round")
		fs.BoolVar(&c.Resume, "resume", c.Resume, "continue from the newest valid checkpoint in -snapshot-dir, skipping completed rounds; corrupt checkpoints fall back to the next-newest valid one, no usable checkpoint to a cold start; output is byte-identical to an uninterrupted run")
	}
	if which&FlagWorkload != 0 {
		fs.StringVar(&c.Workload, "workload", c.Workload, "run a named virtual-clock workload instead of the survey script: update-storm, flap-cascade-rfd, diurnal-churn, hijack-flash, or replay (of the MRT update trace named by -trace); deterministic and byte-identical at any -workers width")
		fs.Int64Var(&c.DurationSeconds, "duration", c.DurationSeconds, "virtual horizon of the -workload run in seconds (0 = the workload's default)")
		fs.BoolVar(&c.RoundMode, "round", c.RoundMode, "quantize the -workload to round boundaries (the historical round-granularity scheduler) instead of event-granularity timers")
	}
	if which&FlagScenario != 0 {
		fs.StringVar(&c.Scenario, "scenario", c.Scenario, "run an adversarial scenario sweep instead of the survey script: hijack (forged-origin announcement of the measurement prefix) or leak (Gao-Rexford-violating customer re-export), swept over RPKI ROV adoption fractions and scored against ground truth")
		fs.Float64Var(&c.ROV, "rov", c.ROV, "RPKI route-origin-validation adoption fraction in [0, 1]: caps the -scenario sweep's adoption ladder (0 = the full default ladder), or deploys ROV at that fraction for -workload runs")
	}
	if which&FlagOptimize != 0 {
		fs.StringVar(&c.Objective, "objective", c.Objective, "run a policy-optimization search toward this target: catchment:re=<frac> (per-AS catchment split) or probe:re=<frac>,commodity=<frac>,loss=<frac> (probe classification distribution); output is byte-identical at any -workers width")
		fs.IntVar(&c.Budget, "budget", c.Budget, "candidate-evaluation budget for the -objective search (0 = score the baseline configuration only)")
		fs.StringVar(&c.Strategy, "strategy", c.Strategy, "search strategy for -objective: hillclimb (seeded hill-climb with restarts) or evolve ((mu+lambda) evolutionary loop); default hillclimb")
	}
	if which&FlagObservability != 0 {
		fs.StringVar(&c.Manifest, "manifest", c.Manifest, "write a run manifest (seed, options, phase durations, all metrics) to this file as deterministic JSON")
		fs.BoolVar(&c.Metrics, "metrics", c.Metrics, "print a Prometheus-style metrics exposition at exit")
		fs.BoolVar(&c.ZeroTime, "zerotime", c.ZeroTime, "zero wall-time fields in the manifest, for byte-stable run comparisons")
	}
}

// Validate rejects flag values the pipeline cannot honour, identically
// in every binary: the run-defining fields via JobOptions.Validate
// (shared with resurveyd's submission endpoint), plus the flag-only
// cross-checks.
func (c Config) Validate() error {
	if err := c.JobOptions.Validate(); err != nil {
		return err
	}
	if c.Resume && c.SnapshotDir == "" {
		return fmt.Errorf("-resume requires -snapshot-dir")
	}
	return nil
}

// NewRegistry returns a live telemetry registry when any flag needs
// one (-manifest or -metrics), nil otherwise — nil keeps the whole
// instrumented pipeline at its zero-cost disabled path.
func (c Config) NewRegistry() *telemetry.Registry {
	if c.Manifest == "" && !c.Metrics {
		return nil
	}
	return telemetry.New()
}

// WriteManifest snapshots reg to the -manifest path (a no-op without
// the flag), honouring -zerotime, with options recorded verbatim.
func (c Config) WriteManifest(reg *telemetry.Registry, options any) error {
	if c.Manifest == "" {
		return nil
	}
	m, err := reg.Snapshot(telemetry.SnapshotOptions{
		Seed:          c.Seed,
		Options:       options,
		ZeroDurations: c.ZeroTime,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(c.Manifest)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DumpMetrics writes the Prometheus text exposition to w when
// -metrics was given (a no-op otherwise).
func (c Config) DumpMetrics(w io.Writer, reg *telemetry.Registry) error {
	if !c.Metrics {
		return nil
	}
	fmt.Fprintln(w)
	return reg.WriteProm(w)
}
