package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are statistics.quantiles(xs, n=4) of Python
	// 3.12, the rule the acceptance driver applies.
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1}, 2, 0.5, 3.5},
		{[]float64{5, 1, 9}, 5, 1, 9},
		{[]float64{1.5, 2.5, 10, 11, 12.25}, 10, 2, 11.625},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); !near(m, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 5, Parent: 0},
		{Name: "b", Start: 3, End: 7, Parent: 0},  // overlaps a: union [1,7]
		{Name: "b", Start: 9, End: 12, Parent: 0}, // runs past its parent: clipped to [9,10]
		{Name: "c", Start: 2, End: 4, Parent: 1},  // grandchild: only a's concern
	}
	got := selfSeconds(spans)
	want := map[string]float64{"op": 3, "a": 2, "b": 7, "c": 2}
	for name, w := range want {
		if !near(got[name], w) {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerNestsAndNilTracerIsNoop(t *testing.T) {
	var none *tracer
	none.start("x")() // must not panic
	none.adopt(time.Now(), []phase{{Path: "round", Duration: 1}})

	tr := newTracer("op-id")
	endOp := tr.start("op")
	endA := tr.start("a")
	endA()
	endB := tr.start("b")
	tr.adopt(tr.epoch, []phase{
		{Path: "experiment:x", StartS: 0, Duration: 4},
		{Path: "experiment:x/config:4-0", StartS: 1, Duration: 2},
		{Path: "experiment:x/config:4-0/round", StartS: 2, Duration: 1},
		{Path: "experiment:x/classify", StartS: 3, Duration: 0.5},
		{Path: "something-else", StartS: 0, Duration: 9},
	})
	endB()
	endOp()
	var names []string
	for _, s := range tr.spans {
		names = append(names, s.Name)
		if s.Op != "op-id" {
			t.Errorf("span %s has op id %q", s.Name, s.Op)
		}
	}
	if want := []string{"op", "a", "b", "core.experiment", "bgp.delta", "probe.rounds", "core.classify"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	if p := []int{tr.spans[1].Parent, tr.spans[2].Parent, tr.spans[3].Parent, tr.spans[4].Parent, tr.spans[5].Parent, tr.spans[6].Parent}; !reflect.DeepEqual(p, []int{0, 0, 2, 3, 4, 3}) {
		t.Errorf("parents %v", p)
	}
	self := selfSeconds(tr.spans)
	if !near(self["bgp.delta"], 1) || !near(self["probe.rounds"], 1) || !near(self["core.experiment"], 1.5) {
		t.Errorf("adopted self times %v", self)
	}
}

func TestSubSeedIsStableAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		s := subSeed(1, i)
		if s != subSeed(1, i) {
			t.Fatal("subSeed is not a function of its arguments")
		}
		if seen[s] {
			t.Fatalf("operation %d repeats an earlier operation's seed", i)
		}
		seen[s] = true
	}
	if subSeed(1, 0) == subSeed(2, 0) {
		t.Error("run seeds 1 and 2 give operation 0 the same seed")
	}
}

// loadRepoSpec reads the committed BENCHMARK.json; tests run from
// inside benchmark/.
func loadRepoSpec(t *testing.T) *spec {
	t.Helper()
	sp, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpecNamesAndCoverage(t *testing.T) {
	sp := loadRepoSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the metric-name charset", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	perLayer := map[string]bool{}
	for _, m := range sp.EndToEnd {
		check("end_to_end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range sp.PerLayer {
		check("per_layer", m.Name)
		perLayer[m.Name] = true
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check("workload", w.name)
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, sp.Workloads[i].Name, w.name)
		}
		if n := len(sp.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("%s: why has %d characters", w.name, n)
		}
		for _, m := range w.expected() {
			if !perLayer[m] {
				t.Errorf("%s exercises %s, which BENCHMARK.json does not list", w.name, m)
			}
		}
	}
	for name := range exactMetrics {
		if !perLayer[name] {
			t.Errorf("exact metric %s is not a per-layer metric", name)
		}
	}
}

func TestRecordRoundTripAndLastLine(t *testing.T) {
	sp := loadRepoSpec(t)
	res := result{
		Workload: "rib_scale", Seed: 7, Header: header{NProc: 2, Workers: 2, GoVersion: "go1.x", Plan: plan{Setups: 3, MinOps: 3, Seconds: 18, Size: defaultSizes}},
		SetupS: []float64{1, 2, 3},
		Ops:    []sample{{Seed: 11, WallS: 1.5, Work: 10, Hash: "abc"}},
		Metrics: map[string]float64{"setup_s": 2, "op_wall_s": 1.5, "op_cpu_s": 1.75, "alloc_mb_per_op": 3,
			"live_heap_mb": 4, "work_per_s": 6.5},
		Attempted: 1,
	}
	path := filepath.Join(t.TempDir(), "set.jsonl")
	for i := 0; i < 2; i++ {
		if err := appendRecord(path, res); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"claim":null`) {
		t.Error("record does not say claim: null")
	}
	recs, err := readRecords(path)
	if err != nil || len(recs) != 2 {
		t.Fatalf("read %d records, err %v", len(recs), err)
	}
	if !reflect.DeepEqual(recs[0].result, res) {
		t.Errorf("record changed in the round trip:\n got %+v\nwant %+v", recs[0].result, res)
	}

	line, complete := lastLine(sp, res)
	if !complete || !line.Correct || line.Attempted != 1 || line.Failed != 0 {
		t.Errorf("last line %+v complete %v", line, complete)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(enc, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("last line has keys %v", keys)
	}
	if len(line.Metrics) != len(sp.EndToEnd) || line.Metrics["setup_s"] != (metricValue{2, "s"}) {
		t.Errorf("last line metrics %v", line.Metrics)
	}
	delete(res.Metrics, "work_per_s")
	if _, complete := lastLine(sp, res); complete {
		t.Error("a timed run without work_per_s counts as complete")
	}
	res.Failed = 1
	if line, _ := lastLine(sp, res); line.Correct {
		t.Error("a run with a failed operation counts as correct")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "work_per_s", Better: "higher", Bound: 0.10}
	steady := func(centre float64) []float64 {
		var xs []float64
		for i := -4; i <= 5; i++ {
			xs = append(xs, centre*(1+0.002*float64(i)))
		}
		return xs
	}
	noisy := func(centre float64) []float64 {
		var xs []float64
		for i := -4; i <= 5; i++ {
			xs = append(xs, centre*(1+0.05*float64(i)))
		}
		return xs
	}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady(10), steady(10), verdictOK},
		{"slower inside the bound", lower, steady(10), steady(10.5), verdictOK},
		{"slower beyond the bound", lower, steady(10), steady(11.5), verdictRegression},
		{"faster", lower, steady(10), steady(8), verdictOK},
		{"less throughput beyond the bound", higher, steady(100), steady(80), verdictRegression},
		{"more throughput", higher, steady(100), steady(130), verdictOK},
		{"too noisy to tell", lower, noisy(10), noisy(10.2), verdictUnresolved},
		{"noisy, but every run better", lower, noisy(10), noisy(5), verdictOK},
		{"noisy and every run worse", lower, noisy(10), noisy(20), verdictUnresolved},
	} {
		if got := judge(c.m, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (worse %+.3f), want %s", c.name, got.Verdict, got.Worse, c.want)
		}
	}
}

func TestCompareSetsFindsExactCountDrift(t *testing.T) {
	sp := loadRepoSpec(t)
	timed := func(seed int64, wall float64, hash string) record {
		return record{result: result{Workload: "event_storm", Seed: seed, Ops: []sample{{Hash: hash}},
			Metrics: map[string]float64{"op_wall_s": wall}}}
	}
	traced := func(updates float64) record {
		return record{result: result{Workload: "event_storm", Seed: 1, Traced: true,
			Metrics: map[string]float64{"bgp.updates_delivered": updates, "bgp.ns_per_update": updates / 7}}}
	}
	a := []record{timed(1, 1.00, "h1"), timed(2, 1.01, "h2"), traced(500)}
	rows, exact := compareSets(sp, a, []record{timed(1, 1.02, "h1"), timed(2, 1.00, "h2"), traced(500)})
	if len(rows) != 1 || rows[0].Metric != "op_wall_s" || rows[0].Verdict != verdictOK || len(exact) != 0 {
		t.Errorf("equal sets: rows %+v exact %v", rows, exact)
	}
	_, exact = compareSets(sp, a, []record{timed(1, 1.0, "h1"), timed(2, 1.0, "CHANGED"), traced(501)})
	if len(exact) != 2 {
		t.Errorf("want the changed hash and the changed count reported, got %v", exact)
	}
}

// smokePlan runs every workload at a reduced size: about the small
// scale for the surveys, the internet tier over 100 divided again for
// the RIB, one set-up and one timed operation.
var smokePlan = plan{Setups: 1, MinOps: 1, Seconds: 0, Size: sizes{
	SurveyDiv: 10, SweepDiv: 10, CatchmentBudget: 8, ProbeBudget: 4,
	StormSeconds: 60, FlapSeconds: 900, RIBDiv: 400,
}}

// TestSmokeEveryWorkload runs each workload end to end, timed and
// traced, and checks that every metric BENCHMARK.json names appears
// and every layer the workload exercises was measured.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	sp := loadRepoSpec(t)
	hdr := newHeader(smokePlan)
	start := time.Now()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res := run(context.Background(), w, hdr, 3, traced, smokePlan, nil)
			if res.Failed != 0 || len(res.Failures) != 0 {
				t.Errorf("%s traced=%v: failed checks %v", w.name, traced, res.Failures)
			}
			if len(res.Missing) != 0 {
				t.Errorf("%s: exercised layers not measured: %v", w.name, res.Missing)
			}
			line, complete := lastLine(sp, res)
			if !complete || !line.Correct {
				t.Errorf("%s traced=%v: last line complete %v correct %v", w.name, traced, complete, line.Correct)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the last line, BENCHMARK.json names %d", w.name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := line.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s absent", w.name, traced, m.Name)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, v.Value)
				}
			}
			if traced {
				if err := writeTrace(t.TempDir(), res); err != nil {
					t.Error(err)
				}
				if len(res.Spans) == 0 || res.TracedOp == nil || res.TracedOp.Hash != res.Ops[0].Hash {
					t.Errorf("%s: traced operation did not reproduce the timed one", w.name)
				}
			}
		}
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("smoke run took %v, budget 20s", d)
	}
}

func TestMainRejectsBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope", "--trace", "0"},
		{"--workload", "rib_scale", "--trace", "2"},
		{"--compare", "only-one.jsonl"},
		{"--compare", "missing-a.jsonl", "missing-b.jsonl"},
	} {
		var out, errOut strings.Builder
		if code := realMain(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit code %d, want 2 (stderr %q)", args, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a result: %q", args, out.String())
		}
	}
}

// fakeWorkload is a workload that calls nothing: it isolates the
// harness's own bookkeeping.
func fakeWorkload(exercises ...string) *workload {
	return &workload{name: "fake", unit: "things", exercises: exercises,
		op: func(_ context.Context, in opIn) (opOut, error) {
			defer in.tr.start("core.tables")()
			time.Sleep(time.Millisecond)
			return opOut{work: 1, hash: "same-every-time"}, nil
		}}
}

func TestGoldenMismatchFailsTheOperation(t *testing.T) {
	p := plan{Setups: 1, MinOps: 2, Seconds: 0}
	res := run(context.Background(), fakeWorkload(), header{Workers: 1}, goldenSeed, false, p,
		map[string][]string{"fake": {"same-every-time", "something-else"}})
	if res.Attempted != 2 || res.Failed != 1 || len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "op 1") {
		t.Errorf("attempted %d failed %d failures %v", res.Attempted, res.Failed, res.Failures)
	}
	if line, _ := lastLine(loadRepoSpec(t), res); line.Correct {
		t.Error("golden mismatch still counts as correct")
	}
}

func TestMissingLayerIsReportedNotGuessed(t *testing.T) {
	sp := loadRepoSpec(t)
	p := plan{Setups: 1, MinOps: 1, Seconds: 0}
	res := run(context.Background(), fakeWorkload("core.tables_s", "probe.rounds_s"), header{Workers: 1}, 5, true, p, nil)
	if !reflect.DeepEqual(res.Missing, []string{"probe.rounds_s"}) {
		t.Errorf("missing %v, want only probe.rounds_s", res.Missing)
	}
	if len(res.Warnings) == 0 {
		t.Error("no warning for the missing layer metric")
	}
	if res.Metrics["core.tables_s"] <= 0 {
		t.Errorf("core.tables_s = %v, the span ran", res.Metrics["core.tables_s"])
	}
	line, _ := lastLine(sp, res)
	if len(line.Metrics) != len(sp.PerLayer) || !line.Correct {
		t.Errorf("traced last line has %d metrics (want %d), correct %v", len(line.Metrics), len(sp.PerLayer), line.Correct)
	}
	var buf strings.Builder
	report(&buf, sp, fakeWorkload("core.tables_s", "probe.rounds_s"), res)
	if !strings.Contains(buf.String(), "MISSING") || !strings.Contains(buf.String(), "bypassed") {
		t.Errorf("report does not tell missing from bypassed layers:\n%s", buf.String())
	}
}
