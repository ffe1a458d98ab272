package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	snap "repro/internal/snapshot"
	"repro/internal/telemetry"
)

// jobKind is what a job runs: the two-experiment survey, the
// fault-intensity sweep, a virtual-clock workload, an adversarial
// scenario sweep, or a policy-optimization search.
type jobKind uint8

const (
	kindSurvey jobKind = iota
	kindSweep
	kindWorkload
	kindScenario
	kindOptimize

	numJobKinds
)

func (k jobKind) String() string {
	switch k {
	case kindSweep:
		return "sweep"
	case kindWorkload:
		return "workload"
	case kindScenario:
		return "scenario"
	case kindOptimize:
		return "optimize"
	}
	return "survey"
}

// JobSpec is a submission body: who is asking, what to run, and the
// run configuration. Options is the core.JobOptions the CLI flags bind
// into, so the server validates a submission exactly as the CLI
// validates its flags.
type JobSpec struct {
	// Tenant names the submitting tenant for rate limiting; empty maps
	// to "default".
	Tenant string `json:"tenant,omitempty"`
	// Kind is "survey" (default), "sweep", "workload", "scenario", or
	// "optimize".
	Kind string `json:"kind,omitempty"`
	// Options configures the pipeline (fields as the CLI flags).
	Options core.JobOptions `json:"options"`
	// TimeoutSeconds, when positive, deadlines the job; on expiry it
	// stops at the next round boundary and is marked failed. Nonzero
	// values must convert to a positive time.Duration (see
	// checkTimeout).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`

	kind jobKind
}

// Validate normalizes and rejects a submission: the options must pass
// the core.JobOptions.Validate the CLI runs, and name the run mode the
// kind runs, so a job never runs while ignoring one of its options.
func (sp *JobSpec) Validate() error {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if sp.Kind == "" {
		sp.Kind = "survey"
	}
	sp.kind = numJobKinds
	for k := kindSurvey; k < numJobKinds; k++ {
		if sp.Kind == k.String() {
			sp.kind = k
		}
	}
	if sp.kind == numJobKinds {
		return fmt.Errorf("unknown job kind %q: want \"survey\", \"sweep\", \"workload\", \"scenario\", or \"optimize\"", sp.Kind)
	}
	if err := checkTimeout(sp.TimeoutSeconds); err != nil {
		return err
	}
	if err := sp.Options.Validate(); err != nil {
		return err
	}
	// Every kind but survey and sweep is named after the mode it runs.
	if mode := sp.Options.Mode(); mode != core.ModeSurvey && mode.String() != sp.Kind {
		return fmt.Errorf("%s job cannot run the options of a %s run: submit kind %q", sp.Kind, mode, mode)
	}
	switch {
	case sp.kind == kindSweep && sp.Options.Faults == 0:
		return fmt.Errorf("sweep job needs options.faults in (0, 1]")
	case sp.kind == kindSurvey && sp.Options.Faults != 0:
		return fmt.Errorf("survey job cannot run options.faults: submit kind %q", kindSweep)
	case sp.kind == kindWorkload && sp.Options.Workload == "":
		return fmt.Errorf("workload job needs options.workload (one of %v)", core.WorkloadNames())
	case sp.Options.Workload == "replay":
		return fmt.Errorf("workload job cannot replay a trace (no upload channel); use the CLI")
	case sp.kind == kindScenario && sp.Options.Scenario == "":
		return fmt.Errorf("scenario job needs options.scenario (one of %v)", faults.ScenarioNames())
	case sp.kind == kindOptimize && sp.Options.Objective == "":
		return fmt.Errorf("optimize job needs options.objective (catchment:re=<frac> or probe:re=,commodity=,loss=)")
	}
	return nil
}

// checkTimeout accepts 0 (no deadline) and any number of seconds that
// converts to a positive time.Duration: from one nanosecond to about
// 292 years. NaN, infinities, negative values and values outside that
// range are rejected; converted, the large ones overflow to a negative
// duration, a deadline that has already passed.
func checkTimeout(sec float64) error {
	if sec == 0 {
		return nil
	}
	if ns := sec * float64(time.Second); !(ns >= 1 && ns < math.MaxInt64) {
		return fmt.Errorf("timeout_seconds %v out of range: want 0 (none) or 1e-9 to %.4g",
			sec, math.MaxInt64/float64(time.Second))
	}
	return nil
}

// timeout is the job's deadline as a duration, 0 for none. Positive
// for every TimeoutSeconds checkTimeout accepts other than 0.
func (sp *JobSpec) timeout() time.Duration {
	return time.Duration(sp.TimeoutSeconds * float64(time.Second))
}

// Job is one submitted job. All mutable fields are guarded by the
// owning Server's mu; the runner goroutine mutates only through
// Server methods.
type Job struct {
	ID   string
	Seq  uint64
	Spec JobSpec

	state  State
	errMsg string
	output []byte
	// cancelled marks a DELETE-requested stop, distinguishing a user
	// cancellation from a deadline expiry when the context error
	// surfaces.
	cancelled bool
	cancel    context.CancelFunc
	// done closes when the runner finishes (any terminal state) or the
	// emulated crash abandons the job.
	done chan struct{}
	// events is the job's full event history (JSON lines), append-only;
	// subs are the event streams' 1-slot wake-up channels, signalled on
	// every append. Each stream reads the history from its own cursor,
	// so a late or stalled subscriber sees the same stream as any other.
	events []string
	subs   map[chan struct{}]struct{}
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID      string          `json:"id"`
	Tenant  string          `json:"tenant"`
	Kind    string          `json:"kind"`
	State   string          `json:"state"`
	Error   string          `json:"error,omitempty"`
	Options core.JobOptions `json:"options"`
}

func (j *Job) status() JobStatus {
	return JobStatus{
		ID:      j.ID,
		Tenant:  j.Spec.Tenant,
		Kind:    j.Spec.Kind,
		State:   j.state.String(),
		Error:   j.errMsg,
		Options: j.Spec.Options,
	}
}

func (j *Job) record() *jobRecord {
	return &jobRecord{Seq: j.Seq, Spec: j.Spec, State: j.state, Error: j.errMsg, Output: j.output}
}

// --- job output ---

// resultSummary is the deterministic JSON digest of one experiment.
type resultSummary struct {
	Name     string         `json:"name"`
	Rounds   int            `json:"rounds"`
	Prefixes int            `json:"prefixes"`
	Classes  map[string]int `json:"classes"`
}

func summarize(res *core.Result) *resultSummary {
	if res == nil {
		return nil
	}
	s := &resultSummary{
		Name:     res.Name,
		Rounds:   len(res.Rounds),
		Prefixes: len(res.PerPrefix),
		Classes:  map[string]int{},
	}
	for _, pr := range res.PerPrefix {
		s.Classes[pr.Inference.String()]++
	}
	return s
}

// sweepSummary is the deterministic JSON digest of one sweep point.
type sweepSummary struct {
	Intensity      float64 `json:"intensity"`
	SessionFaults  int     `json:"session_faults"`
	Accuracy       float64 `json:"accuracy"`
	MeanConfidence float64 `json:"mean_confidence"`
	OutageClasses  int     `json:"outage_classes"`
}

// scenarioSummary is the deterministic JSON digest of one scenario
// sweep point.
type scenarioSummary struct {
	Adoption         float64 `json:"adoption"`
	Baseline         bool    `json:"baseline,omitempty"`
	Deployed         int     `json:"deployed"`
	PollutedASes     int     `json:"polluted_ases"`
	CleanASes        int     `json:"clean_ases"`
	UnreachableASes  int     `json:"unreachable_ases"`
	LeakAffectedASes int     `json:"leak_affected_ases"`
	LeakedRoutes     int     `json:"leaked_routes"`
	Accuracy         float64 `json:"accuracy"`
	MidSignature     string  `json:"mid_signature"`
	EndDigest        string  `json:"end_digest"`
}

// optimizePoint is one generation of the search trajectory.
type optimizePoint struct {
	Generation int     `json:"generation"`
	Evaluated  int     `json:"evaluated"`
	BestScore  float64 `json:"best_score"`
	BestConfig string  `json:"best_config"`
}

// optimizeSummary is the deterministic JSON digest of one
// policy-optimization search run.
type optimizeSummary struct {
	Objective        string          `json:"objective"`
	Strategy         string          `json:"strategy"`
	Budget           int             `json:"budget"`
	Evaluated        int             `json:"evaluated"`
	Generations      int             `json:"generations"`
	Restarts         int             `json:"restarts"`
	BaselineScore    float64         `json:"baseline_score"`
	BestScore        float64         `json:"best_score"`
	BestConfig       string          `json:"best_config"`
	WarmRestores     int64           `json:"warm_restores"`
	ColdBuilds       int64           `json:"cold_builds"` // always 0: every evaluation is warm
	EvalDecisionRuns int64           `json:"eval_decision_runs"`
	Trajectory       []optimizePoint `json:"trajectory,omitempty"`
}

// jobOutput is the document GET /jobs/{id}/output serves: experiment
// digests (or sweep points), a survey's analysis report exactly as
// resurvey prints it (core.Analysis.WriteText), and the run's full
// telemetry manifest. Every field serializes deterministically (JSON
// object keys and map keys are sorted), so a resumed job reproduces a
// cold run's output byte for byte.
type jobOutput struct {
	SURF      *resultSummary    `json:"surf,omitempty"`
	Internet2 *resultSummary    `json:"internet2,omitempty"`
	Analysis  string            `json:"analysis,omitempty"`
	Sweep     []sweepSummary    `json:"sweep,omitempty"`
	Workload  *workloadSummary  `json:"workload,omitempty"`
	Scenario  []scenarioSummary `json:"scenario,omitempty"`
	Optimize  *optimizeSummary  `json:"optimize,omitempty"`
	Manifest  json.RawMessage   `json:"manifest"`
}

// workloadSummary is the deterministic JSON digest of one workload
// run. The wall-derived speedup ratio is deliberately absent.
type workloadSummary struct {
	Name             string           `json:"name"`
	DurationSeconds  int64            `json:"duration_seconds"`
	RoundMode        bool             `json:"round_mode"`
	Events           map[string]int64 `json:"events"`
	Dispatched       int64            `json:"dispatched"`
	BGPEvents        int              `json:"bgp_events"`
	UpdatesDelivered int64            `json:"updates_delivered"`
	RFDPenalties     int64            `json:"rfd_penalties"`
	RFDSuppressions  int64            `json:"rfd_suppressions"`
	ProbeRounds      int              `json:"probe_rounds"`
	ProbesSent       int              `json:"probes_sent"`
	ProbesResponded  int              `json:"probes_responded"`
	RIBDigest        string           `json:"rib_digest"`
}

// --- the runner ---

// runSurvey executes a survey job: resume from the newest checkpoint
// in the job's directory when one exists (the CLI's -resume path,
// core.Pipeline.OpenSurvey), checkpoint after every round, stream
// progress, and render the deterministic output document with the
// analysis report the CLI prints.
func (s *Server) runSurvey(ctx context.Context, j *Job) ([]byte, error) {
	jobDir := filepath.Join(s.cfg.DataDir, j.ID)
	reg := telemetry.New()
	fp := j.Spec.Options.Fingerprint(1)

	// Unusable files and a missing job directory both mean a cold start.
	sv, _, err := j.Spec.Options.Pipeline(reg).OpenSurvey(jobDir, fp, nil)
	if err != nil {
		return nil, err
	}
	if sv.Resume != nil {
		s.reg.Counter("serve_jobs_resumed_total").Inc()
	}

	crashLeft := s.crashAfterCheckpoints
	sv.Checkpoint = func(ck *core.Checkpoint) {
		s.checkpointed(j, core.WriteCheckpoint(jobDir, fp, ck, sv.Eco.Net, reg), &crashLeft)
	}
	sv.Progress = func(phase int, ev core.RoundProgress) {
		s.publish(j, event{Type: "round", Phase: phase, Round: &ev})
	}

	if err := sv.RunBothContext(ctx); err != nil {
		return nil, err
	}
	a, err := core.Analyze(sv)
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	a.WriteText(&text)
	return renderOutput(j, reg, &jobOutput{
		SURF:      summarize(sv.SURF),
		Internet2: summarize(sv.Internet2),
		Analysis:  text.String(),
	})
}

// runSweep executes a fault-sweep job. Sweep points have no per-round
// checkpoint hook, so an interrupted sweep re-runs from the start on
// recovery — the output is deterministic either way.
func (s *Server) runSweep(ctx context.Context, j *Job) ([]byte, error) {
	reg := telemetry.New()
	pl := j.Spec.Options.Pipeline(reg)
	pts, err := pl.RunFaultSweepContext(ctx)
	if err != nil {
		return nil, err
	}
	out := &jobOutput{}
	for _, pt := range pts {
		out.Sweep = append(out.Sweep, sweepSummary{
			Intensity:      pt.Intensity,
			SessionFaults:  pt.SessionFaults,
			Accuracy:       pt.Accuracy,
			MeanConfidence: pt.MeanConfidence,
			OutageClasses:  pt.OutageClasses,
		})
	}
	return renderOutput(j, reg, out)
}

// runWorkload executes a workload job: a named virtual-clock schedule
// through the event engine. Workload runs have no checkpoint hook — a
// recovered job re-runs from cold and, being deterministic, reproduces
// the same output document.
func (s *Server) runWorkload(ctx context.Context, j *Job) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reg := telemetry.New()
	pl := j.Spec.Options.Pipeline(reg)
	res, err := pl.RunWorkload(j.Spec.Options.WorkloadOptions())
	if err != nil {
		return nil, err
	}
	return renderOutput(j, reg, &jobOutput{
		Workload: &workloadSummary{
			Name:             res.Name,
			DurationSeconds:  int64(res.Duration),
			RoundMode:        res.RoundMode,
			Events:           res.EventsByKind,
			Dispatched:       res.Dispatched,
			BGPEvents:        res.BGPEvents,
			UpdatesDelivered: res.UpdatesDelivered,
			RFDPenalties:     res.RFDPenalties,
			RFDSuppressions:  res.RFDSuppressions,
			ProbeRounds:      res.ProbeRounds,
			ProbesSent:       res.ProbesSent,
			ProbesResponded:  res.ProbesResponded,
			RIBDigest:        fmt.Sprintf("%016x", res.RIBDigest),
		},
	})
}

// runScenario executes a scenario-sweep job: an adversarial schedule
// (hijack or leak) injected at every ROV adoption point. Like sweeps,
// scenario jobs have no checkpoint hook; a recovered job re-runs from
// cold and reproduces the same deterministic output document.
func (s *Server) runScenario(ctx context.Context, j *Job) ([]byte, error) {
	reg := telemetry.New()
	pl := j.Spec.Options.Pipeline(reg)
	pts, err := pl.RunScenarioSweepContext(ctx)
	if err != nil {
		return nil, err
	}
	out := &jobOutput{}
	for _, pt := range pts {
		out.Scenario = append(out.Scenario, scenarioSummary{
			Adoption:         pt.Adoption,
			Baseline:         pt.Baseline,
			Deployed:         pt.Deployed,
			PollutedASes:     pt.PollutedASes,
			CleanASes:        pt.CleanASes,
			UnreachableASes:  pt.UnreachableASes,
			LeakAffectedASes: pt.LeakAffectedASes,
			LeakedRoutes:     pt.LeakedRoutes,
			Accuracy:         pt.Accuracy,
			MidSignature:     fmt.Sprintf("%016x", pt.MidSignature),
			EndDigest:        fmt.Sprintf("%016x", pt.EndDigest),
		})
	}
	return renderOutput(j, reg, out)
}

// runOptimize executes a policy-optimization search job: stream
// per-generation progress over SSE, checkpoint the encoded search
// state after every generation, and — on recovery — resume from the
// newest checkpoint whose fingerprint matches the job's configuration,
// so a restarted search reproduces an uninterrupted one bit for bit.
func (s *Server) runOptimize(ctx context.Context, j *Job) ([]byte, error) {
	jobDir := filepath.Join(s.cfg.DataDir, j.ID)
	reg := telemetry.New()
	pl := j.Spec.Options.Pipeline(reg)
	opts := pl.OptimizeOptions()

	// The resume fingerprint is exactly what core.RunOptimizeContext
	// will demand of the blob; deriving it here lets recovery skip
	// stale or corrupt checkpoint files instead of failing the job.
	if fp, err := opts.SearchFingerprint(); err == nil {
		if blob := core.LatestSearchState(jobDir, fp); blob != nil {
			opts.Resume = blob
			s.reg.Counter("serve_jobs_resumed_total").Inc()
		}
	}

	opts.Progress = func(p core.OptimizeProgress) {
		s.publish(j, event{Type: "generation", Optimize: &p})
	}
	crashLeft := s.crashAfterCheckpoints
	opts.Checkpoint = func(state []byte, p core.OptimizeProgress) {
		s.checkpointed(j, snap.WriteFileAtomic(jobDir, core.SearchStateName(p.Generation), state), &crashLeft)
	}

	res, err := core.RunOptimizeContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	sum := &optimizeSummary{
		Objective:        res.Objective,
		Strategy:         res.Strategy,
		Budget:           res.Budget,
		Evaluated:        res.Evaluated,
		Generations:      res.Generations,
		Restarts:         res.Restarts,
		BaselineScore:    res.BaselineScore,
		BestScore:        res.Best.Score,
		BestConfig:       res.Best.Candidate.Label(),
		WarmRestores:     res.WarmRestores,
		EvalDecisionRuns: res.EvalDecisionRuns,
	}
	for _, p := range res.Trajectory {
		sum.Trajectory = append(sum.Trajectory, optimizePoint{
			Generation: p.Generation,
			Evaluated:  p.Evaluated,
			BestScore:  p.BestScore,
			BestConfig: p.BestLabel,
		})
	}
	return renderOutput(j, reg, &jobOutput{Optimize: sum})
}

// renderOutput attaches the job's telemetry manifest (wall times
// zeroed for determinism) and serializes the output document.
func renderOutput(j *Job, reg *telemetry.Registry, out *jobOutput) ([]byte, error) {
	m, err := reg.Snapshot(telemetry.SnapshotOptions{
		Seed:          j.Spec.Options.Seed,
		Options:       j.Spec.Options,
		ZeroDurations: true,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return nil, err
	}
	out.Manifest = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	return json.Marshal(out)
}

// --- progress events ---

// event is one SSE payload: a round completing, an optimizer
// generation completing, or a state change.
type event struct {
	Type     string                 `json:"type"` // "round" | "generation" | "state"
	Phase    int                    `json:"phase,omitempty"`
	Round    *core.RoundProgress    `json:"round,omitempty"`
	Optimize *core.OptimizeProgress `json:"optimize,omitempty"`
	State    string                 `json:"state,omitempty"`
}
