package core

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/optimize"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/vtime"
)

// JobOptions is the portable description of one pipeline run: every
// field with run semantics, and nothing a front end adds (manifest
// paths, metrics dumps, checkpoint directories). The CLI flags bind
// straight into it and resurveyd job submissions unmarshal into it, so
// both front ends validate and build a run through the same path. The
// JSON names are resurveyd's wire format.
type JobOptions struct {
	Small bool `json:"small,omitempty"`
	// Scale names the topology size tier (small, paper, internet);
	// empty defers to Small. See topo.ParseScale.
	Scale   string  `json:"scale,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	Workers int     `json:"workers,omitempty"`
	Faults  float64 `json:"faults,omitempty"`
	// Workload selects a named virtual-clock workload (see
	// WorkloadNames); empty runs the standard survey script.
	Workload string `json:"workload,omitempty"`
	// DurationSeconds bounds the workload's virtual horizon; 0 uses
	// the named workload's default.
	DurationSeconds int64 `json:"duration_seconds,omitempty"`
	// RoundMode quantizes the workload to round boundaries (the
	// compatibility mode) instead of event-granularity timers.
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

// RunMode is what a job runs: the survey script (with the fault sweep
// when Faults is set), or one of the three runs that replace it.
type RunMode uint8

const (
	ModeSurvey RunMode = iota
	ModeWorkload
	ModeScenario
	ModeOptimize
)

func (m RunMode) String() string {
	switch m {
	case ModeWorkload:
		return "workload"
	case ModeScenario:
		return "scenario"
	case ModeOptimize:
		return "optimize"
	}
	return "survey"
}

// Mode returns the run mode the options name. Validate rejects options
// that name more than one.
func (j JobOptions) Mode() RunMode {
	switch {
	case j.Workload != "":
		return ModeWorkload
	case j.Scenario != "":
		return ModeScenario
	case j.Objective != "":
		return ModeOptimize
	}
	return ModeSurvey
}

// WorkloadOptions converts the job's workload fields into the run
// options of RunWorkload (zero value when no workload is selected).
func (j JobOptions) WorkloadOptions() WorkloadOptions {
	return WorkloadOptions{
		Name:      j.Workload,
		Duration:  vtime.Time(j.DurationSeconds),
		RoundMode: j.RoundMode,
	}
}

// Fingerprint is the checkpoint compatibility key of a survey run of
// the job repeated over nSeeds seeds (worker count excluded — see
// CheckpointFingerprint).
func (j JobOptions) Fingerprint(nSeeds int) CheckpointFingerprint {
	return CheckpointFingerprint{
		Seed:   j.Seed,
		Small:  j.Small,
		Faults: j.Faults,
		NSeeds: nSeeds,
	}
}

// Validate rejects options the pipeline cannot honour. Both front ends
// run it, so the CLI and resurveyd reject the same runs with the same
// message; the messages name the CLI flags.
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
	if j.Workload != "" && !KnownWorkload(j.Workload) {
		return fmt.Errorf("-workload %q unknown: want one of %v", j.Workload, WorkloadNames())
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
	if j.Objective != "" {
		if _, err := optimize.ParseSpec(j.Objective); err != nil {
			return err
		}
	}
	// One run mode: the fault sweep follows the survey script, and a
	// workload, a scenario sweep or a search each replaces it.
	named := ""
	for _, m := range []struct {
		flag string
		set  bool
	}{
		{"workload", j.Workload != ""},
		{"scenario", j.Scenario != ""},
		{"objective", j.Objective != ""},
		{"faults", j.Faults > 0},
	} {
		if !m.set {
			continue
		}
		if named != "" {
			return fmt.Errorf("-%s conflicts with -%s (pick one run mode)", m.flag, named)
		}
		named = m.flag
	}
	if math.IsNaN(j.ROV) || math.IsInf(j.ROV, 0) || j.ROV < 0 || j.ROV > 1 {
		return fmt.Errorf("-rov fraction %v out of range: want a value in [0, 1]", j.ROV)
	}
	if j.ROV > 0 && j.Scenario == "" && j.Workload == "" {
		return fmt.Errorf("-rov requires -scenario or -workload")
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

// Pipeline builds the pipeline the job describes, wiring reg (nil is
// fine) as the metrics sink. The job's Seed is the session seed, zero
// included.
func (j JobOptions) Pipeline(reg *telemetry.Registry) *Pipeline {
	return (&Pipeline{job: j, seedSet: true, metrics: reg}).resolve()
}
