package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// sizes are the problem sizes of the four workloads. The committed
// defaults are the same on every commit; only the harness's own smoke
// test runs smaller ones.
type sizes struct {
	// SurveyDiv and SweepDiv divide the paper-scale populations.
	SurveyDiv int `json:"survey_div"`
	SweepDiv  int `json:"sweep_div"`
	// CatchmentBudget and ProbeBudget are the optimizer's evaluation
	// budgets for the two searches.
	CatchmentBudget int `json:"catchment_budget"`
	ProbeBudget     int `json:"probe_budget"`
	// StormSeconds and FlapSeconds are the virtual horizons of the two
	// event-engine workloads.
	StormSeconds int `json:"storm_seconds"`
	FlapSeconds  int `json:"flap_seconds"`
	// RIBDiv divides the internet tier's populations.
	RIBDiv int `json:"rib_div"`
}

// opIn is what one operation receives: generated inputs and options
// only. tr and layers are nil for a timed operation.
type opIn struct {
	seed    int64
	workers int
	size    sizes
	tr      *tracer
	layers  *layerSet
}

// opOut is what one operation reports back to the harness.
type opOut struct {
	// work is the workload's unit of work done (prefixes classified,
	// sweep points + candidates, updates delivered, routes held).
	work float64
	// hash digests the operation's simulated statistics; partHash the
	// part a narrower re-run reproduces (sweep_warm's fault sweep).
	hash, partHash string
	// routes is set by rib_scale for the real bytes-per-route figure.
	routes int
	// failures lists output checks that did not hold.
	failures []string
	// hold keeps the results referenced while the live heap is read;
	// heapDelta is that reading minus the pre-operation baseline.
	hold      any
	heapDelta float64
}

func (o *opOut) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// digest hashes an operation's statistics line by line.
type digest struct{ lines []byte }

func (d *digest) add(format string, args ...any) {
	d.lines = fmt.Appendf(d.lines, format+"\n", args...)
}

func (d *digest) sum() string {
	h := sha256.Sum256(d.lines)
	return hex.EncodeToString(h[:8])
}

// layerSet collects the per-layer metrics of a traced run.
type layerSet struct {
	v        map[string]float64
	warnings []string
	failures []string
}

func newLayerSet() *layerSet { return &layerSet{v: map[string]float64{}} }

func (l *layerSet) set(name string, v float64) { l.v[name] = v }

func (l *layerSet) warn(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	l.warnings = append(l.warnings, msg)
	fmt.Fprintln(os.Stderr, "benchmark: warning:", msg)
}

func (l *layerSet) fail(format string, args ...any) {
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// unit names the work counted by work_per_s.
	unit string
	op   func(context.Context, opIn) (opOut, error)
	// extras makes the isolated layer measurements of a traced run,
	// outside the operation.
	extras func(context.Context, opIn, opOut)
	// exercises lists the per-layer metrics this workload must
	// produce. One of them missing is reported, not guessed; any other
	// per-layer metric reads 0 here: the workload bypasses that layer.
	exercises []string
}

var workloads = []workload{
	{
		name: "survey_paper", unit: "prefixes", op: surveyOp, extras: surveyExtras,
		exercises: []string{
			"core.new_survey_s", "core.run_both_s", "core.experiment_s", "bgp.delta_s", "probe.rounds_s",
			"core.classify_s", "core.tables_s", "bgp.static_solve_s", "core.predictors_s",
			"core.ablate_targets_s", "core.ablate_round_gap_s", "core.dataset_s",
			"probe.probes_sent", "probe.ns_per_probe", "bgp.delta_decision_runs",
			"bgp.converge_s", "bgp.converge_decision_runs", "bgp.snapshot_encode_s",
			"bgp.snapshot_restore_s", "bgp.snapshot_bytes", "snapshot.restore_over_converge",
		},
	},
	{
		name: "sweep_warm", unit: "evals", op: sweepOp, extras: sweepExtras,
		exercises: []string{
			"core.fault_sweep_s", "core.scenario_sweep_s", "core.optimize_catchment_s", "core.optimize_probe_s",
			"bgp.delta_s", "probe.rounds_s", "core.classify_s",
			"probe.probes_sent", "probe.ns_per_probe", "bgp.delta_decision_runs",
			"optimize.evaluated", "optimize.eval_ms", "optimize.warm_restores", "optimize.eval_decision_runs",
			"bgp.converge_s", "bgp.converge_decision_runs", "bgp.snapshot_encode_s",
			"bgp.snapshot_restore_s", "bgp.snapshot_bytes", "snapshot.restore_over_converge",
			"parallel.sweep_speedup", "parallel.cpu_inflation",
		},
	},
	{
		name: "event_storm", unit: "updates", op: stormOp,
		exercises: []string{
			"core.update_storm_s", "core.flap_cascade_s", "bgp.updates_delivered", "bgp.ns_per_update",
			"bgp.allocs_per_update", "bgp.rfd_suppressions", "vtime.dispatched",
		},
	},
	{
		name: "rib_scale", unit: "routes", op: ribOp, extras: ribExtras,
		exercises: []string{
			"topo.build_s", "bgp.flood_converge_s", "bgp.feed_install_s", "bgp.install_ns_per_route",
			"bgp.snapshot_encode_s", "bgp.snapshot_restore_s", "bgp.snapshot_bytes", "bgp.withdraw_s",
			"bgp.routes", "bgp.distinct_paths", "bgp.modelled_bytes_per_route",
			"bgp.heap_bytes_per_route", "bgp.model_gap",
		},
	},
}

// everyRun lists the per-layer metrics each traced run produces
// whatever the workload.
var everyRun = []string{"vtime.bare_events_per_s", "op.unattributed_s", "trace.overhead_share"}

// expected lists the per-layer metrics a traced run of w must produce.
func (w *workload) expected() []string {
	return append(append([]string(nil), w.exercises...), everyRun...)
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sample is the measurement of one operation.
type sample struct {
	Seed       int64    `json:"seed"`
	WallS      float64  `json:"wall_s"`
	CPUS       float64  `json:"cpu_s"`
	AllocMB    float64  `json:"alloc_mb"`
	LiveHeapMB float64  `json:"live_heap_mb"`
	Work       float64  `json:"work"`
	Hash       string   `json:"hash"`
	Failures   []string `json:"failures,omitempty"`
}

func (s sample) failed() bool { return len(s.Failures) > 0 }

const mb = 1 << 20

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// collectedHeap reads the heap after two collections: the first only
// moves what sync.Pools hold to their victim caches, the second frees
// it, so one alone would count pooled garbage as live.
func collectedHeap(m *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(m)
}

// measure runs one operation between two collected heaps: the first
// gives every operation the same starting point and the baseline for
// heapDelta, the second reads what the operation's results keep alive.
// The opOut comes back with those results released.
func measure(ctx context.Context, w *workload, in opIn) (sample, opOut) {
	var m0, m1, m2 runtime.MemStats
	collectedHeap(&m0)
	c0, t0 := cpuSeconds(), time.Now()
	endOp := in.tr.start("op")
	out, err := w.op(ctx, in)
	endOp()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	runtime.ReadMemStats(&m1)
	collectedHeap(&m2)
	if err != nil {
		out.fail("operation error: %v", err)
	}
	out.heapDelta = float64(m2.HeapAlloc) - float64(m0.HeapAlloc)
	s := sample{
		Seed:       in.seed,
		WallS:      wall,
		CPUS:       cpu,
		AllocMB:    float64(m1.TotalAlloc-m0.TotalAlloc) / mb,
		LiveHeapMB: float64(m2.HeapAlloc) / mb,
		Work:       out.work,
		Hash:       out.hash,
		Failures:   out.failures,
	}
	runtime.KeepAlive(out.hold)
	out.hold = nil
	return s, out
}

// plan is how much one run does. The committed plan is the same on
// every commit; only the harness's own smoke test runs a smaller one.
type plan struct {
	// Setups is how many times a timed run sets up; setup_s is their
	// median. A traced run spends its budget on the traced operation
	// and the isolated measurements, and sets up once.
	Setups int `json:"setups"`
	// MinOps is the fewest timed operations medians are taken over, and
	// the number a traced run makes.
	MinOps int `json:"min_ops"`
	// Seconds bounds the timed operations: another one starts only if
	// it is likely to end inside the budget.
	Seconds float64 `json:"seconds"`
	Size    sizes   `json:"size"`
}

// warmUpStream is the first operation index of the warm-up operations'
// seeds, far above any timed operation's index.
const warmUpStream = 1 << 20

// result is everything one run measured.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Header   header             `json:"header"`
	SetupS   []float64          `json:"setup_s"`
	Ops      []sample           `json:"ops"`
	TracedOp *sample            `json:"traced_op,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	// Missing lists expected per-layer metrics that could not be
	// produced; they read 0 in Metrics and null in the report.
	Missing  []string `json:"missing,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
	Failures []string `json:"failures,omitempty"`
	// Attempted and Failed count timed (and traced) operations.
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Spans     []span `json:"-"`
}

// run measures one workload: it sets up (input generation plus one
// discarded warm-up operation) p.Setups times, then runs timed
// operations one at a time until the next one would overrun the
// budget, and in a traced run one more operation under spans plus the
// isolated layer measurements.
func run(ctx context.Context, w *workload, hdr header, seed int64, traced bool, p plan, golden map[string][]string) result {
	res := result{Workload: w.name, Seed: seed, Traced: traced, Header: hdr, Metrics: map[string]float64{}}
	in := func(i int) opIn { return opIn{seed: subSeed(seed, i), workers: hdr.Workers, size: p.Size} }

	reps := p.Setups
	if traced {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		// Each set-up warms up on inputs of its own, which no timed
		// operation repeats.
		t0 := time.Now()
		warm, _ := measure(ctx, w, in(warmUpStream+r))
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		if warm.failed() {
			res.Failures = append(res.Failures, prefixed("warm-up: ", warm.Failures)...)
		}
	}

	// Every untraced operation of a traced run repeats operation 0, the
	// one the traced operation repeats too, so that their wall times
	// differ by the tracing alone.
	opIndex := func(i int) int {
		if traced {
			return 0
		}
		return i
	}
	begin := time.Now()
	for {
		s, _ := measure(ctx, w, in(opIndex(len(res.Ops))))
		res.Ops = append(res.Ops, s)
		if len(res.Ops) >= p.MinOps && (traced || time.Since(begin).Seconds()+s.WallS > p.Seconds) {
			break
		}
	}

	wantGolden := golden[w.name]
	for i, s := range res.Ops {
		res.Attempted++
		pin := opIndex(i)
		if pin < len(wantGolden) && s.Hash != wantGolden[pin] {
			s.Failures = append(s.Failures, fmt.Sprintf("statistics hash %s differs from golden %s", s.Hash, wantGolden[pin]))
			res.Ops[i] = s
		}
		if s.failed() {
			res.Failed++
			res.Failures = append(res.Failures, prefixed(fmt.Sprintf("op %d: ", i), s.Failures)...)
		}
	}

	pick := func(f func(sample) float64) []float64 {
		xs := make([]float64, len(res.Ops))
		for i, s := range res.Ops {
			xs[i] = f(s)
		}
		return xs
	}
	if !traced {
		res.Metrics["setup_s"] = median(res.SetupS)
		res.Metrics["op_wall_s"] = median(pick(func(s sample) float64 { return s.WallS }))
		res.Metrics["op_cpu_s"] = median(pick(func(s sample) float64 { return s.CPUS }))
		res.Metrics["alloc_mb_per_op"] = median(pick(func(s sample) float64 { return s.AllocMB }))
		res.Metrics["live_heap_mb"] = median(pick(func(s sample) float64 { return s.LiveHeapMB }))
		res.Metrics["work_per_s"] = median(pick(func(s sample) float64 { return s.Work / s.WallS }))
		return res
	}

	// The traced operation repeats timed operation 0: same seed, so its
	// statistics must hash the same and its wall time is comparable.
	ls := newLayerSet()
	tin := in(0)
	tin.tr, tin.layers = newTracer(fmt.Sprintf("%s/%d/0", w.name, seed)), ls
	ts, tout := measure(ctx, w, tin)
	res.TracedOp = &ts
	res.Attempted++
	if ts.Hash != res.Ops[0].Hash {
		ts.Failures = append(ts.Failures, fmt.Sprintf("traced statistics hash %s differs from the timed operation's %s", ts.Hash, res.Ops[0].Hash))
	}
	for name, v := range selfSeconds(tin.tr.spans) {
		if name == "op" {
			ls.set("op.unattributed_s", v)
		} else {
			ls.set(name+"_s", v)
		}
	}
	timedWall := median(pick(func(s sample) float64 { return s.WallS }))
	ls.set("trace.overhead_share", (ts.WallS-timedWall)/timedWall)
	if w.extras != nil {
		w.extras(ctx, tin, tout)
	}
	bareEngineLayer(ls)
	derive(ls)
	ts.Failures = append(ts.Failures, ls.failures...)
	if ts.failed() {
		res.Failed++
		res.Failures = append(res.Failures, prefixed("traced op: ", ts.Failures)...)
	}

	if share := ls.v["op.unattributed_s"] / ts.WallS; share > 0.10 {
		ls.warn("%.1f%% of the traced operation is outside every named span", 100*share)
	}
	if share := ls.v["trace.overhead_share"]; share > 0.05 {
		ls.warn("traced operation ran %.1f%% slower than the timed one", 100*share)
	}
	for _, name := range w.expected() {
		if _, ok := ls.v[name]; !ok {
			res.Missing = append(res.Missing, name)
			ls.warn("layer metric %s was not produced (a renamed phase or counter?); reported as null", name)
		}
	}
	res.Metrics = ls.v
	res.Warnings = ls.warnings
	res.Spans = tin.tr.spans
	return res
}

// derive computes the per-layer ratios from the spans and counts
// already collected; a ratio whose parts are absent stays absent.
func derive(ls *layerSet) {
	ratio := func(name, num, den string, scale float64) {
		n, okN := ls.v[num]
		d, okD := ls.v[den]
		if okN && okD && d != 0 {
			ls.set(name, scale*n/d)
		}
	}
	ratio("probe.ns_per_probe", "probe.rounds_s", "probe.probes_sent", 1e9)
	ratio("bgp.install_ns_per_route", "bgp.feed_install_s", "bgp.routes", 1e9)
	ratio("snapshot.restore_over_converge", "bgp.snapshot_restore_s", "bgp.converge_s", 1)
	ratio("bgp.model_gap", "bgp.heap_bytes_per_route", "bgp.modelled_bytes_per_route", 1)
	ratio("optimize.eval_ms", "core.optimize_catchment_s", "optimize.catchment_evaluated", 1e3)
	delete(ls.v, "optimize.catchment_evaluated")
	if upd := ls.v["bgp.updates_delivered"]; upd > 0 {
		ls.set("bgp.ns_per_update", (ls.v["core.update_storm_s"]+ls.v["core.flap_cascade_s"])*1e9/upd)
	}
}

func prefixed(p string, msgs []string) []string {
	out := make([]string, len(msgs))
	for i, m := range msgs {
		out[i] = p + m
	}
	return out
}
