package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliconf"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/netutil"
	"repro/internal/probe"
	"repro/internal/telemetry"
)

// TestFaultsFlagValidation checks -faults rejects out-of-range
// intensities with a usage error before any work starts.
func TestFaultsFlagValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.01, 5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		o := options{NSeeds: 1, Config: cliconf.Config{JobOptions: core.JobOptions{Faults: bad}}}
		if err := o.validate(); err == nil {
			t.Errorf("-faults %v accepted, want usage error", bad)
		}
	}
	for _, good := range []float64{0, 0.1, 0.5, 1} {
		o := options{NSeeds: 1, Config: cliconf.Config{JobOptions: core.JobOptions{Faults: good}}}
		if err := o.validate(); err != nil {
			t.Errorf("-faults %v rejected: %v", good, err)
		}
	}
	if err := (options{NSeeds: 0}).validate(); err == nil {
		t.Error("-seeds 0 accepted, want usage error")
	}
}

// TestRunModeFlagValidation: one run mode per invocation, and the
// survey script's own flags only on the survey.
func TestRunModeFlagValidation(t *testing.T) {
	storm := core.JobOptions{Workload: "update-storm"}
	for _, tc := range []struct {
		o    options
		want string
	}{
		{options{NSeeds: 1, Config: cliconf.Config{JobOptions: core.JobOptions{Workload: "update-storm", Faults: 0.5}}},
			"-faults conflicts with -workload"},
		{options{NSeeds: 1, Config: cliconf.Config{JobOptions: core.JobOptions{Scenario: "leak", Faults: 0.5}}},
			"-faults conflicts with -scenario"},
		{options{NSeeds: 2, Config: cliconf.Config{JobOptions: storm}}, "-workload replaces the survey script"},
		{options{NSeeds: 1, JSONDir: "out", Config: cliconf.Config{JobOptions: core.JobOptions{Scenario: "hijack"}}},
			"-scenario replaces the survey script"},
		{options{NSeeds: 1, Config: cliconf.Config{JobOptions: storm, SnapshotDir: "ck"}},
			"-workload does not support -snapshot-dir/-resume"},
		{options{NSeeds: 1, Config: cliconf.Config{JobOptions: core.JobOptions{Workload: "replay"}}},
			"-workload replay requires -trace"},
		{options{NSeeds: 1, Trace: "u.mrt", Config: cliconf.Config{JobOptions: storm}},
			"-trace requires -workload replay"},
	} {
		if err := tc.o.validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("validate(%+v) = %v, want %q", tc.o, err, tc.want)
		}
	}
	if err := (options{NSeeds: 1, Trace: "u.mrt", Config: cliconf.Config{JobOptions: core.JobOptions{Workload: "replay"}}}).validate(); err != nil {
		t.Errorf("-workload replay -trace rejected: %v", err)
	}
}

func TestSweepIntensities(t *testing.T) {
	got := core.SweepIntensities(0.5)
	want := []float64{0, 0.1, 0.25, 0.5}
	if len(got) != len(want) {
		t.Fatalf("SweepIntensities(0.5) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SweepIntensities(0.5) = %v, want %v", got, want)
		}
	}
	// A max between ladder points becomes the final point itself.
	got = core.SweepIntensities(0.3)
	if got[len(got)-1] != 0.3 {
		t.Fatalf("SweepIntensities(0.3) = %v, want final point 0.3", got)
	}
}

// TestManifestGolden runs the reduced pipeline twice with the same
// seed and -zerotime and requires byte-identical manifests, then
// checks the promised counts are present and nonzero.
func TestManifestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reduced pipeline twice")
	}
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for _, p := range paths {
		o := options{
			NSeeds: 1,
			Config: cliconf.Config{
				JobOptions: core.JobOptions{Small: true, Seed: 1, Faults: 0.5},
				Manifest:   p,
				ZeroTime:   true,
			},
		}
		if err := run(io.Discard, o); err != nil {
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("manifests differ between identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}

	m := readManifest(t, paths[0])
	if m.Seed != 1 {
		t.Errorf("manifest seed = %d, want 1", m.Seed)
	}
	if m.Version == "" {
		t.Error("manifest version empty")
	}
	// The acceptance counts: BGP decisions, probe retries (the sweep
	// runs at intensity > 0), and at least one classification label.
	for _, name := range []string{
		"bgp_decision_runs_total",
		"bgp_best_path_changes_total",
		"probe_probes_sent_total",
		"probe_retries_total",
	} {
		if m.Counter(name) <= 0 {
			t.Errorf("manifest counter %s = %d, want > 0", name, m.Counter(name))
		}
	}
	labelled := int64(0)
	for _, c := range m.Metrics.Counters {
		if len(c.Name) > len("core_classifications_total") &&
			c.Name[:len("core_classifications_total")] == "core_classifications_total" {
			labelled += c.Value
		}
	}
	if labelled <= 0 {
		t.Errorf("no core_classifications_total{label=...} counts recorded")
	}
	if len(m.Phases) == 0 {
		t.Error("manifest has no phase records")
	}
	for _, ph := range m.Phases {
		if ph.StartMS != 0 || ph.DurationMS != 0 {
			t.Errorf("phase %s has nonzero wall time under -zerotime: %+v", ph.Path, ph)
		}
	}
}

func readManifest(t *testing.T, path string) *telemetry.Manifest {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := telemetry.ReadManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestArtifactWriters runs a reduced survey with -json, -mrt and a
// -manifest and checks the JSON and MRT side outputs are complete and
// parseable, and that the manifest of a run without -zerotime records
// the run's worker count and the probe and classify shards.
func TestArtifactWriters(t *testing.T) {
	dir := t.TempDir()
	o := options{
		NSeeds:  1,
		JSONDir: filepath.Join(dir, "json"),
		MRTDir:  filepath.Join(dir, "mrt"),
		Config: cliconf.Config{
			JobOptions: core.JobOptions{Small: true, Seed: 1},
			Manifest:   filepath.Join(dir, "m.json"),
		},
	}
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	// The run's world, built again: what the dumps must describe.
	eco := o.Pipeline(nil).NewSurvey().Eco

	m := readManifest(t, o.Manifest)
	if m.Parallel.Workers <= 0 {
		t.Errorf("parallel.workers = %d without -zerotime, want > 0", m.Parallel.Workers)
	}
	phases := map[string]bool{}
	for _, sh := range m.Parallel.Shards {
		phases[sh.Phase] = true
	}
	for _, want := range []string{"probe", "classify"} {
		if !phases[want] {
			t.Errorf("manifest parallel section missing phase %q", want)
		}
	}

	for _, name := range []string{"surf.json", "internet2.json"} {
		f, err := os.Open(filepath.Join(o.JSONDir, name))
		if err != nil {
			t.Fatal(err)
		}
		rounds, err := probe.ReadJSON(f, func(addr uint32) (netutil.Prefix, bool) {
			return netutil.PrefixFrom(addr, 24), true
		})
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rounds) != len(core.Schedule()) {
			t.Errorf("%s: %d rounds, want %d", name, len(rounds), len(core.Schedule()))
		}
	}

	entries, err := os.ReadDir(o.MRTDir)
	if err != nil {
		t.Fatal(err)
	}
	// Two collector RIBs + two update streams.
	if len(entries) != 4 {
		t.Fatalf("mrt dir has %d files", len(entries))
	}
	for _, name := range []string{"updates-surf.mrt", "updates-internet2.mrt"} {
		f, err := os.Open(filepath.Join(o.MRTDir, name))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := collector.ReadUpdates(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) == 0 {
			t.Errorf("%s: empty update stream", name)
		}
		for _, rec := range recs {
			if rec.Prefix != eco.MeasPrefix {
				t.Fatalf("%s: unexpected prefix %s", name, rec.Prefix)
			}
		}
	}
	for i := range eco.Collectors {
		name := filepath.Join(o.MRTDir, "rib-collector"+itoa(i)+".mrt")
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		rib, err := collector.ReadMRTRIB(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rib.Routes) == 0 {
			t.Errorf("%s: empty RIB", name)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	out := ""
	for n > 0 {
		out = string(rune('0'+n%10)) + out
		n /= 10
	}
	return out
}

// TestSmallSeed1Golden pins `resurvey -small -seed 1`'s stdout, every
// table and figure of the report, byte for byte. An intended change of
// the output regenerates the file:
//
//	go run ./cmd/resurvey -small -seed 1 > cmd/resurvey/testdata/small_seed1.txt
func TestSmallSeed1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reduced pipeline")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "small_seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, options{NSeeds: 1, Config: cliconf.Config{JobOptions: core.JobOptions{Small: true, Seed: 1}}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("stdout differs from testdata/small_seed1.txt at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stdout has %d lines, testdata/small_seed1.txt %d", len(gl), len(wl))
	}
}

// TestWorkersDeterminismMatrix is the tentpole acceptance check: the
// same run at -workers 1, 2, and 8 must produce byte-identical
// -zerotime manifests AND byte-identical stdout (every table, every
// classification) — parallelism must be invisible in the output.
func TestWorkersDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reduced pipeline once per worker count")
	}
	man := runWidths(t, core.JobOptions{Small: true, Seed: 1, Faults: 0.5}, 1, 2, 8)
	// The manifest must actually carry the parallel section: shard
	// records for every sharded phase, with deterministic item counts.
	m, err := telemetry.ReadManifest(bytes.NewReader(man))
	if err != nil {
		t.Fatal(err)
	}
	if m.Parallel.Workers != 0 {
		t.Errorf("parallel.workers = %d under -zerotime, want 0", m.Parallel.Workers)
	}
	phases := map[string]bool{}
	for _, sh := range m.Parallel.Shards {
		phases[sh.Phase] = true
		if sh.Items <= 0 || sh.Calls <= 0 {
			t.Errorf("shard %s/%d has items=%d calls=%d, want > 0", sh.Phase, sh.Shard, sh.Items, sh.Calls)
		}
		if sh.DurationMS != 0 {
			t.Errorf("shard %s/%d has nonzero duration under -zerotime", sh.Phase, sh.Shard)
		}
	}
	for _, want := range []string{"probe", "classify", "faultsweep"} {
		if !phases[want] {
			t.Errorf("manifest parallel section missing phase %q", want)
		}
	}
}

// TestRunModesWorkersDeterminism holds the run modes that replace the
// survey script to the same rule at workers 1 and 4: byte-identical
// stdout and -zerotime manifest. The update-storm workload and the
// hijack scenario are pinned by digest in scripts/outputs.sh.
func TestRunModesWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each mode once per worker count")
	}
	for _, job := range []core.JobOptions{
		{Workload: "flap-cascade-rfd", DurationSeconds: 1200},
		{Workload: "diurnal-churn", DurationSeconds: 7200},
		{Scenario: "leak"},
	} {
		t.Run(job.Workload+job.Scenario, func(t *testing.T) {
			job.Small, job.Seed = true, 1
			runWidths(t, job, 1, 4)
		})
	}
}

// runWidths runs job once per worker count with a -zerotime manifest,
// fails the test unless stdout and manifest are the same bytes at
// every width, and returns the manifest.
func runWidths(t *testing.T, job core.JobOptions, widths ...int) []byte {
	t.Helper()
	// One shared manifest path (re-read between runs): stdout echoes
	// the path, so per-worker filenames would trivially differ.
	p := filepath.Join(t.TempDir(), "m.json")
	var man, stdout []byte
	for _, n := range widths {
		job.Workers = n
		o := options{NSeeds: 1, Config: cliconf.Config{JobOptions: job, Manifest: p, ZeroTime: true}}
		var out bytes.Buffer
		if err := run(&out, o); err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		m, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if man == nil {
			man, stdout = m, out.Bytes()
			continue
		}
		if !bytes.Equal(m, man) {
			t.Errorf("manifest differs between -workers %d and -workers %d", widths[0], n)
		}
		if !bytes.Equal(out.Bytes(), stdout) {
			t.Errorf("stdout differs between -workers %d and -workers %d", widths[0], n)
		}
	}
	return man
}
