// Package cliconf is the shared flag surface of the reproduction's
// binaries: it registers the run flags once, with identical names and
// semantics in every command, binding them into a core.JobOptions, and
// adds the front-end concerns only a command line has (run manifest,
// metrics dump, checkpoint directory).
package cliconf

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Config holds the shared flag values: the run itself
// (core.JobOptions) plus the front-end concerns only a command line
// has. Commands embed it in their own options struct and register the
// subset of flags they support; field values at Register time become
// the flag defaults, so a command can keep its historical defaults
// (reprobe defaults -small to true).
type Config struct {
	core.JobOptions
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
// in every binary: the run-defining fields via core.JobOptions.Validate
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
