// Package serve is the resident survey service behind cmd/resurveyd:
// a long-running HTTP front end that accepts survey and fault-sweep
// job submissions, runs them concurrently through core.Pipeline, and
// streams round-by-round progress. Its design centre is robustness
// under hostile conditions rather than features:
//
//   - Admission control (admission.go): per-tenant token buckets and a
//     global active-job / heap-watermark gate shed excess load with
//     429 + Retry-After instead of queueing unboundedly or OOMing.
//   - Crash safety (fsm.go, persist.go): every lifecycle transition is
//     persisted atomically before it is visible, survey jobs checkpoint
//     after every configuration round, and a restarted server resumes
//     every interrupted job with output byte-equal to an uninterrupted
//     run.
//   - Isolation: a panicking job is recovered, marked failed, and
//     counted — the server keeps serving. Deadlines and cancellation
//     propagate through context.Context into the pipeline's round
//     loops.
//   - Graceful shutdown: Shutdown stops admissions, drains running
//     jobs within a configurable timeout, and abandons (not cancels)
//     whatever cannot finish — the next start resumes it from its
//     last checkpoint.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// errCrash is the sentinel the crash-emulation test knob panics with:
// the runner abandons the job exactly as a killed process would —
// durable state untouched, no terminal transition — so kill-and-
// restart recovery is testable in-process.
var errCrash = errors.New("serve: emulated crash")

// Config configures a Server.
type Config struct {
	// DataDir is the durable root: one directory per job (manifest +
	// checkpoints). Required.
	DataDir string
	// Admission tunes the load-shedding gates.
	Admission AdmissionConfig
	// DrainTimeout bounds how long Shutdown waits for running jobs
	// before abandoning them to a later resume; 0 means wait forever.
	DrainTimeout time.Duration
}

// Server owns the job table and the runners. Create with New, start
// recovered jobs with Start, serve Handler over HTTP, stop with
// Shutdown.
type Server struct {
	cfg Config
	reg *telemetry.Registry
	adm *admission

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // IDs in submission order
	nextSeq uint64
	closing bool

	wg       sync.WaitGroup
	baseCtx  context.Context
	baseStop context.CancelFunc

	// runJob executes one job and returns its output document; tests
	// substitute a fake. The default dispatches on the job kind.
	runJob func(ctx context.Context, j *Job) ([]byte, error)
	// persist writes a job's manifest into the data dir (an fsync per
	// call); tests that cycle through many jobs substitute a no-op.
	persist func(r *jobRecord) error
	// crashAfterCheckpoints > 0 makes the Nth checkpoint write panic
	// with errCrash — the kill-and-restart test knob.
	crashAfterCheckpoints int
}

// New builds a server and reloads the job table from cfg.DataDir:
// terminal jobs are listed as-is; interrupted ones are re-queued (a
// job that died in Running has no durable progress and cold-starts; a
// Checkpointed one resumes from its newest checkpoint). Call Start to
// launch the recovered jobs.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: Config.DataDir is required")
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		reg:      telemetry.New(),
		adm:      newAdmission(cfg.Admission),
		jobs:     make(map[string]*Job),
		baseCtx:  ctx,
		baseStop: stop,
	}
	s.runJob = s.dispatch
	s.persist = func(r *jobRecord) error { return writeJobRecord(cfg.DataDir, r) }

	recs, corrupt := loadJobRecords(cfg.DataDir)
	if corrupt > 0 {
		s.reg.Counter("serve_job_manifests_corrupt_total").Add(int64(corrupt))
	}
	for _, r := range recs {
		j := &Job{
			ID:    r.id(),
			Seq:   r.Seq,
			Spec:  r.Spec,
			state: r.State,
			done:  make(chan struct{}),
			subs:  make(map[chan struct{}]struct{}),
		}
		j.errMsg = r.Error
		j.output = r.Output
		if !j.state.Terminal() {
			if j.state == StateRunning {
				// Died before the first checkpoint: nothing durable to
				// resume, so recovery re-queues it from scratch.
				j.state = StateQueued
				_ = s.persist(j.record())
			}
			s.reg.Counter("serve_jobs_recovered_total").Inc()
		} else {
			close(j.done)
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if r.Seq >= s.nextSeq {
			s.nextSeq = r.Seq + 1
		}
	}
	s.updateActiveGauge()
	return s, nil
}

// Registry exposes the server's own telemetry (the serve_* metrics
// plus whatever the caller wires in, e.g. the parallel panic counter).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Start launches runners for every job recovered in a non-terminal
// state. Separate from New so tests (and future embedders) can adjust
// hooks before execution begins.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		j := s.jobs[id]
		if !j.state.Terminal() {
			s.launchLocked(j)
		}
	}
}

// Submit validates and admits one submission, returning the queued
// job, or an *admitError (shed) or validation error (bad request).
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return nil, &admitError{reason: "server shutting down", retryAfter: time.Second}
	}
	if err := s.adm.admit(spec.Tenant, s.activeLocked()); err != nil {
		s.reg.Counter("serve_jobs_shed_total").Inc()
		if err.reason == "tenant rate limit exceeded" {
			s.reg.Counter("serve_rate_limited_total").Inc()
		}
		return nil, err
	}
	j := &Job{
		ID:    jobID(s.nextSeq),
		Seq:   s.nextSeq,
		Spec:  spec,
		state: StateQueued,
		done:  make(chan struct{}),
		subs:  make(map[chan struct{}]struct{}),
	}
	s.nextSeq++
	if err := s.persist(j.record()); err != nil {
		return nil, fmt.Errorf("persist job: %w", err)
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.reg.Counter("serve_jobs_accepted_total").Inc()
	s.updateActiveGauge()
	s.launchLocked(j)
	return j, nil
}

// Cancel requests cancellation of a job; the runner stops at the next
// round boundary. Cancelling a queued or already-terminal job is
// settled immediately.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("no such job %s", id)
	}
	if j.state.Terminal() {
		return nil
	}
	j.cancelled = true
	if j.cancel != nil {
		j.cancel()
	}
	return nil
}

// activeLocked counts non-terminal jobs; mu must be held.
func (s *Server) activeLocked() int {
	n := 0
	for _, j := range s.jobs {
		if !j.state.Terminal() {
			n++
		}
	}
	return n
}

func (s *Server) updateActiveGauge() {
	s.reg.Gauge("serve_jobs_active").Set(float64(s.activeLocked()))
}

// launchLocked starts a runner goroutine for j; mu must be held.
func (s *Server) launchLocked(j *Job) {
	s.wg.Add(1)
	go s.execute(j)
}

// dispatch is the production runJob: survey, sweep, workload, or
// scenario by kind.
func (s *Server) dispatch(ctx context.Context, j *Job) ([]byte, error) {
	switch j.Spec.kind {
	case kindSweep:
		return s.runSweep(ctx, j)
	case kindWorkload:
		return s.runWorkload(ctx, j)
	case kindScenario:
		return s.runScenario(ctx, j)
	case kindOptimize:
		return s.runOptimize(ctx, j)
	}
	return s.runSurvey(ctx, j)
}

// execute is one job's runner goroutine: transition to running, run
// with panic isolation, settle the terminal state, persist.
func (s *Server) execute(j *Job) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(s.baseCtx)
	if d := j.Spec.timeout(); d > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, d)
	}
	defer cancel()

	s.mu.Lock()
	j.cancel = cancel
	if j.cancelled { // cancelled while queued
		s.setStateLocked(j, StateCancelled, "cancelled before start")
		s.reg.Counter("serve_jobs_cancelled_total").Inc()
		s.mu.Unlock()
		return
	}
	s.setStateLocked(j, StateRunning, "")
	s.mu.Unlock()

	out, err := s.runIsolated(ctx, j)

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case errors.Is(err, errCrash):
		// Emulated kill: the durable state stays exactly as the crash
		// left it; only the in-process bookkeeping is released.
		close(j.done)
	case err != nil && s.closing && ctx.Err() != nil && !j.cancelled:
		// Drain-timeout abandonment: like a crash, but deliberate. The
		// job's durable state resumes on the next start.
		s.reg.Counter("serve_jobs_abandoned_total").Inc()
		close(j.done)
	case err != nil && j.cancelled:
		s.setStateLocked(j, StateCancelled, err.Error())
		s.reg.Counter("serve_jobs_cancelled_total").Inc()
	case err != nil:
		s.setStateLocked(j, StateFailed, err.Error())
		s.reg.Counter("serve_jobs_failed_total").Inc()
	default:
		j.output = out
		s.setStateLocked(j, StateDone, "")
		s.reg.Counter("serve_jobs_completed_total").Inc()
	}
}

// runIsolated runs the job with panic isolation: a panic (other than
// the crash sentinel) becomes an error and a counter, never a dead
// server.
func (s *Server) runIsolated(ctx context.Context, j *Job) (out []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			if e, ok := v.(error); ok && errors.Is(e, errCrash) {
				err = errCrash
				return
			}
			s.reg.Counter("serve_job_panics_total").Inc()
			err = fmt.Errorf("job panicked: %v", v)
		}
	}()
	return s.runJob(ctx, j)
}

// setStateLocked performs one FSM transition, persists it, publishes
// the state event, and closes done on terminal states; mu must be
// held. An illegal transition panics: it is a server bug, and the
// table-driven FSM tests pin the legal set.
func (s *Server) setStateLocked(j *Job, to State, errMsg string) {
	if !j.state.CanTransition(to) {
		panic(fmt.Sprintf("serve: illegal transition %s -> %s for %s", j.state, to, j.ID))
	}
	j.state = to
	if errMsg != "" {
		j.errMsg = errMsg
	}
	if err := s.persist(j.record()); err != nil {
		s.reg.Counter("serve_persist_errors_total").Inc()
	}
	s.publishLocked(j, event{Type: "state", State: to.String()})
	s.updateActiveGauge()
	if to.Terminal() {
		close(j.done)
	}
}

// checkpointed records the outcome err of a job's checkpoint write. A
// failed write is counted and otherwise ignored: the job runs on,
// resumable from its previous checkpoint. After a durable one the job
// (re-)enters Checkpointed and the manifest is rewritten so a crash
// from here resumes rather than restarts; *crashLeft counts down the
// crash knob.
func (s *Server) checkpointed(j *Job, err error, crashLeft *int) {
	if err != nil {
		s.reg.Counter("serve_checkpoint_errors_total").Inc()
		return
	}
	s.mu.Lock()
	if j.state == StateRunning || j.state == StateCheckpointed {
		s.setStateLocked(j, StateCheckpointed, "")
		s.reg.Counter("serve_checkpoints_total").Inc()
	}
	s.mu.Unlock()
	if s.crashAfterCheckpoints > 0 {
		if *crashLeft--; *crashLeft == 0 {
			panic(errCrash)
		}
	}
}

// publish appends an event to the job's history and fans it out.
func (s *Server) publish(j *Job, ev event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(j, ev)
}

func (s *Server) publishLocked(j *Job, ev event) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	j.events = append(j.events, string(b))
	for wake := range j.subs {
		select {
		case wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// Shutdown stops admitting, then drains running jobs. Jobs still
// running when cfg.DrainTimeout expires are abandoned mid-flight —
// their contexts are cancelled, no terminal state is written, and the
// next start resumes them from their last checkpoint.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()

	var timeout <-chan time.Time
	if s.cfg.DrainTimeout > 0 {
		t := time.NewTimer(s.cfg.DrainTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	case <-timeout:
	}
	// Out of patience: cancel everything still running and wait for the
	// runners to unwind (they stop at the next round boundary).
	s.baseStop()
	<-drained
	if err := ctx.Err(); err != nil {
		return err
	}
	return fmt.Errorf("serve: drain timeout after %s; running jobs abandoned for resume", s.cfg.DrainTimeout)
}

// --- HTTP ---

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/output", s.handleOutput)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad job body: %v", err)})
		return
	}
	j, err := s.Submit(spec)
	if err != nil {
		var shed *admitError
		if errors.As(err, &shed) {
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(shed.retryAfter.Seconds()))))
			writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": shed.reason})
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	s.mu.Lock()
	state, out := j.state, j.output
	s.mu.Unlock()
	if state != StateDone {
		writeJSON(w, http.StatusConflict, map[string]string{"error": fmt.Sprintf("job is %s, output exists only when done", state)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": "cancelling"})
}

// handleEvents streams the job's event history and then live events as
// SSE until the job reaches a terminal state or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	// The stream is the job's event history read from a cursor: each
	// wake-up sends every event past it, so a consumer that stalls
	// misses nothing, however many events it falls behind.
	wake := make(chan struct{}, 1)
	s.mu.Lock()
	j.subs[wake] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(j.subs, wake)
		s.mu.Unlock()
	}()

	done := j.done
	for sent := 0; ; {
		// The history only grows, so the events below its length at
		// this read stay as they are after the lock is released.
		s.mu.Lock()
		pending := j.events[sent:]
		terminal := j.state.Terminal()
		s.mu.Unlock()
		for _, ev := range pending {
			fmt.Fprintf(w, "data: %s\n\n", ev)
		}
		sent += len(pending)
		fl.Flush()
		if terminal || done == nil {
			return
		}
		select {
		case <-wake:
		case <-done:
			done = nil // the runner is finished: send what is left, then stop
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	counts := map[string]int{}
	for _, j := range s.jobs {
		counts[j.state.String()]++
	}
	closing := s.closing
	s.mu.Unlock()
	status := "ok"
	if closing {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "jobs": counts})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WriteProm(w)
}
