// Command benchmark is the repository's yardstick: four named
// workloads, each a closed loop of whole operations run one at a time
// from a single process, reporting end-to-end metrics from untraced
// operations and per-layer metrics from a separate traced run. See
// README.md beside this file.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out set.jsonl]
//	bash benchmark/run.sh --compare a.jsonl b.jsonl
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// defaultSizes are sized so that one operation of every workload takes
// about two to three seconds on two cores: a run then holds three
// set-ups and at least five timed operations inside the driver's
// budget. They are part of the benchmark's definition; changing them
// starts a new trajectory.
var defaultSizes = sizes{
	SurveyDiv:       4,
	SweepDiv:        4,
	CatchmentBudget: 64,
	ProbeBudget:     16,
	StormSeconds:    300,
	FlapSeconds:     1800,
	RIBDiv:          40,
}

// goldenSeed is the run seed whose statistics hashes golden.json pins,
// one per timed operation index, at defaultSizes.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the program reads: the metric
// names it must print and the bounds -compare applies.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or, when run
// from inside benchmark/, its parent, and returns that root too.
func loadSpec() (*spec, string, error) {
	var firstErr error
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var sp spec
		if err := json.Unmarshal(data, &sp); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &sp, root, nil
	}
	return nil, "", firstErr
}

// exactMetrics are counts made by the program that must repeat exactly
// for a given seed; a later change may rest a claim on them.
var exactMetrics = map[string]bool{
	"bgp.converge_decision_runs":  true,
	"bgp.delta_decision_runs":     true,
	"optimize.eval_decision_runs": true,
	"probe.probes_sent":           true,
	"bgp.updates_delivered":       true,
	"bgp.routes":                  true,
	"bgp.distinct_paths":          true,
	"optimize.evaluated":          true,
	"bgp.snapshot_bytes":          true,
}

// header records where and how a run was made.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	Plan       plan    `json:"plan"`
}

func newHeader(p plan) header {
	h := header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
		Plan:       p,
	}
	// workers is passed to the program as WithWorkers; it never exceeds
	// the processors the Go runtime will use.
	h.Workers = min(h.GOMAXPROCS, 4)
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+modified"
				}
			}
		}
	}
	return h
}

// resultLine is the last line of standard output, the driver's
// contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as --out appends it: the unit -compare reads.
type record struct {
	result
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: survey_paper, sweep_warm, event_storm or rib_scale")
	seed := fs.Int64("seed", 1, "run seed; operation i uses parallel.SubSeed(seed, i)")
	seconds := fs.Float64("seconds", 0, "how long to run timed operations (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = timed run reporting end-to-end metrics")
	out := fs.String("out", "", "append this run's full record as one JSON line to the file")
	cmp := fs.Bool("compare", false, "compare two record files: --compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: --compare takes two record files")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil || fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (one of %s) and --trace 0|1\n", workloadNames())
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}

	var golden map[string][]string
	if *seed == goldenSeed {
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			fmt.Fprintln(stderr, "benchmark: golden.json:", err)
			return 2
		}
	}
	p := plan{Setups: 3, MinOps: 3, Seconds: *seconds, Size: defaultSizes}
	res := run(context.Background(), w, newHeader(p), *seed, *trace == 1, p, golden)
	report(stdout, sp, w, res)

	if res.Traced {
		if err := writeTrace(filepath.Join(root, "benchmark", "out"), res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendRecord(*out, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, complete := lastLine(sp, res)
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !line.Correct || !complete {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// lastLine builds the contract line: every end-to-end metric of a
// timed run, every per-layer metric of a traced one. A per-layer
// metric the workload bypasses reads 0. complete is false when an
// end-to-end metric is absent, which is a bug in the harness.
func lastLine(sp *spec, res result) (line resultLine, complete bool) {
	line = resultLine{Correct: res.Failed == 0 && len(res.Failures) == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]metricValue{}}
	list, complete := sp.EndToEnd, true
	if res.Traced {
		list = sp.PerLayer
	}
	for _, m := range list {
		v, ok := res.Metrics[m.Name]
		if !ok && !res.Traced {
			complete = false
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return line, complete
}

// report prints the run for a reader: header, every operation, every
// metric by name with its unit, then warnings and failed checks.
func report(w io.Writer, sp *spec, wl *workload, res result) {
	h := res.Header
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  budget %.0fs\n", res.Workload, res.Seed, res.Traced, h.Plan.Seconds)
	fmt.Fprintf(w, "host: nproc %d  GOMAXPROCS %d  workers %d  %s  %s  load(1m) %.2f  commit %s\n",
		h.NProc, h.GOMAXPROCS, h.Workers, h.GoVersion, h.CPUModel, h.LoadAvg1, h.Commit)
	fmt.Fprintf(w, "sizes: %+v\n", h.Plan.Size)
	fmt.Fprintf(w, "set-up (input generation + one discarded warm-up operation), %d times: %s s\n", len(res.SetupS), floats(res.SetupS))
	ops := res.Ops
	if res.TracedOp != nil {
		ops = append(append([]sample(nil), ops...), *res.TracedOp)
	}
	for i, s := range ops {
		label := fmt.Sprintf("op %d", i)
		if res.TracedOp != nil && i == len(ops)-1 {
			label = "traced"
		}
		fmt.Fprintf(w, "%-6s wall %.4f s  cpu %.4f s  alloc %.1f MB  live %.1f MB  %.0f %s  stats %s\n",
			label, s.WallS, s.CPUS, s.AllocMB, s.LiveHeapMB, s.Work, wl.unit, s.Hash)
	}
	var walls []float64
	for _, s := range res.Ops {
		walls = append(walls, s.WallS)
	}
	sort.Float64s(walls)
	fmt.Fprintf(w, "timed operations: n %d  min %.4f s  median %.4f s  max %.4f s (too few for a tail percentile)\n",
		len(walls), walls[0], median(walls), walls[len(walls)-1])

	list := sp.EndToEnd
	if res.Traced {
		list = sp.PerLayer
	}
	missing := map[string]bool{}
	for _, m := range res.Missing {
		missing[m] = true
	}
	exercised := map[string]bool{}
	for _, m := range wl.expected() {
		exercised[m] = true
	}
	for _, m := range list {
		v, ok := res.Metrics[m.Name]
		note := ""
		switch {
		case missing[m.Name]:
			fmt.Fprintf(w, "  %-34s %14s %-6s MISSING\n", m.Name, "null", m.Unit)
			continue
		case res.Traced && !ok && !exercised[m.Name]:
			note = "bypassed"
		case exactMetrics[m.Name]:
			note = "exact"
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", m.Name, v, m.Unit, note)
	}
	for _, msg := range res.Warnings {
		fmt.Fprintln(w, "warning:", msg)
	}
	for _, msg := range res.Failures {
		fmt.Fprintln(w, "FAILED CHECK:", msg)
	}
	fmt.Fprintf(w, "operations attempted %d, failed %d\n", res.Attempted, res.Failed)
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

// writeTrace writes the traced operation's spans, which were kept in
// memory while it ran.
func writeTrace(dir string, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{res.Workload, res.Seed, res.Spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+res.Workload+".json"), append(data, '\n'), 0o644)
}

func appendRecord(path string, res result) error {
	data, err := json.Marshal(record{result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a file of --out records, one JSON object a line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for n := 1; sc.Scan(); n++ {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}
