package cliconf

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func TestRegisterKeepsFieldDefaults(t *testing.T) {
	// Commands seed the Config with their historical defaults before
	// Register; parsing no flags must leave those values intact.
	c := Config{JobOptions: core.JobOptions{Small: true, Seed: 7}}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, &c, FlagAll)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !c.Small || c.Seed != 7 || c.Workers != 0 || c.Faults != 0 {
		t.Errorf("defaults clobbered: %+v", c)
	}
}

func TestRegisterParsesSharedFlags(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, &c, FlagAll)
	args := []string{
		"-small", "-seed", "42", "-workers", "8", "-faults", "0.5",
		"-manifest", "m.json", "-metrics", "-zerotime",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Config{JobOptions: core.JobOptions{Small: true, Seed: 42, Workers: 8, Faults: 0.5}, Manifest: "m.json", Metrics: true, ZeroTime: true}
	if c != want {
		t.Errorf("parsed %+v, want %+v", c, want)
	}
}

// TestRegisterBindsJobOptions: the run flags bind straight into the
// embedded JobOptions under their historical names (-duration fills
// DurationSeconds), beside the front-end fields.
func TestRegisterBindsJobOptions(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, &c, FlagWorkload|FlagScenario|FlagSnapshot)
	args := []string{
		"-workload", "hijack-flash", "-duration", "60", "-round",
		"-scenario", "leak", "-rov", "0.25",
		"-snapshot-dir", "ck", "-resume",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Config{
		JobOptions: core.JobOptions{Workload: "hijack-flash", DurationSeconds: 60, RoundMode: true,
			Scenario: "leak", ROV: 0.25},
		SnapshotDir: "ck",
		Resume:      true,
	}
	if c != want {
		t.Errorf("parsed %+v, want %+v", c, want)
	}
}

func TestRegisterSubsets(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, &c, FlagSeed|FlagWorkers)
	for _, name := range []string{"seed", "workers"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	for _, name := range []string{"small", "faults", "manifest", "metrics", "zerotime"} {
		if fs.Lookup(name) != nil {
			t.Errorf("flag -%s registered but not requested", name)
		}
	}
	// The engine has one decision path; no flag group may bring the
	// mode switch back.
	all := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(all, &c, ^Flags(0))
	if all.Lookup("incremental") != nil {
		t.Error("the removed -incremental flag is registered")
	}
}

func TestValidate(t *testing.T) {
	for _, bad := range []core.JobOptions{
		{Faults: -0.1},
		{Faults: 1.5},
		{Faults: math.NaN()},
		{Faults: math.Inf(1)},
		{Workers: -1},
		{ROV: 0.5}, // nothing on the survey path deploys ROV
		{ROV: 0.5, Objective: "catchment:re=0.5"},
	} {
		if err := (Config{JobOptions: bad}).Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
	for _, good := range []core.JobOptions{
		{},
		{Faults: 0.5, Workers: 8},
		{Faults: 1},
		{ROV: 0.5, Scenario: "hijack"},
		{ROV: 0.5, Workload: "hijack-flash"},
	} {
		if err := (Config{JobOptions: good}).Validate(); err != nil {
			t.Errorf("Validate(%+v) rejected: %v", good, err)
		}
	}
	if err := (Config{Resume: true}).Validate(); err == nil {
		t.Error("-resume without -snapshot-dir accepted")
	}
}

// TestJobValidationParity pins the CLI/server contract: a Config, the
// core.JobOptions it embeds, and a resurveyd submission of the kind
// the options run accept and reject identically (with the same
// message), so a job submission resurveyd rejects is exactly one the
// flags would reject.
func TestJobValidationParity(t *testing.T) {
	for _, j := range []core.JobOptions{
		{},
		{Faults: -0.1},
		{Faults: 1.5},
		{Faults: math.NaN()},
		{Workers: -1},
		{Small: true, Seed: 7, Workers: 8, Faults: 0.5},
		// One run mode: the fault sweep conflicts with the other three.
		{Faults: 0.5, Workload: "update-storm"},
		{Faults: 0.5, Scenario: "hijack"},
		{Faults: 0.5, Objective: "catchment:re=0.4"},
	} {
		c := Config{JobOptions: j}
		kind := j.Mode().String()
		if j.Mode() == core.ModeSurvey && j.Faults > 0 {
			kind = "sweep"
		}
		spec := serve.JobSpec{Kind: kind, Options: j}
		cfgErr, jobErr, specErr := c.Validate(), j.Validate(), spec.Validate()
		if (cfgErr == nil) != (jobErr == nil) || (jobErr == nil) != (specErr == nil) {
			t.Errorf("%+v: Config.Validate=%v, JobOptions.Validate=%v, JobSpec.Validate=%v", j, cfgErr, jobErr, specErr)
		} else if cfgErr != nil && (cfgErr.Error() != jobErr.Error() || specErr.Error() != jobErr.Error()) {
			t.Errorf("%+v: messages diverge: %q, %q, %q", j, cfgErr, jobErr, specErr)
		}
	}
}

// checkSweepWiring asserts that the pipeline's fault sweep carries the
// seed, the worker bound, and the intensity ladder up to faults.
func checkSweepWiring(t *testing.T, pl *core.Pipeline, seed int64, workers int, faults float64) {
	t.Helper()
	f := pl.FaultSweepOptions()
	if pl.Seed() != seed || f.Workers != workers || f.Intensities[len(f.Intensities)-1] != faults {
		t.Errorf("pipeline carries seed=%d workers=%d intensities=%v", pl.Seed(), f.Workers, f.Intensities)
	}
}

func TestJobPipelineWiring(t *testing.T) {
	j := core.JobOptions{Small: true, Seed: 5, Workers: 3, Faults: 0.25}
	checkSweepWiring(t, j.Pipeline(nil), 5, 3, 0.25)
}

func TestScaleFlag(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, &c, FlagSmall)
	if err := fs.Parse([]string{"-scale", "internet"}); err != nil {
		t.Fatal(err)
	}
	if c.Scale != "internet" {
		t.Fatalf("parsed scale %q", c.Scale)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("-scale internet rejected: %v", err)
	}
	if err := (core.JobOptions{Scale: "planet"}).Validate(); err == nil {
		t.Error("-scale planet accepted")
	}
	if err := (core.JobOptions{Small: true, Scale: "paper"}).Validate(); err == nil {
		t.Error("-small with -scale paper accepted")
	}
	if err := (core.JobOptions{Small: true, Scale: "small"}).Validate(); err != nil {
		t.Errorf("-small with agreeing -scale small rejected: %v", err)
	}
	// The tier must reach the pipeline's topology configuration and
	// override -small.
	pl := core.JobOptions{Scale: "paper"}.Pipeline(nil)
	if got := pl.SurveyOptions().Topology; got.MembersUS == 0 || got.CompactRIB {
		t.Errorf("paper scale not installed: %+v", got)
	}
	pl = core.JobOptions{Scale: "internet"}.Pipeline(nil)
	if got := pl.SurveyOptions().Topology; !got.CompactRIB || !got.DensePrefixes {
		t.Errorf("internet scale not installed: %+v", got)
	}
}

func TestOptimizeFlags(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, &c, FlagOptimize)
	args := []string{"-objective", "catchment:re=0.3", "-budget", "24", "-strategy", "evolve"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if c.Objective != "catchment:re=0.3" || c.Budget != 24 || c.Strategy != "evolve" {
		t.Fatalf("parsed %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid optimize config rejected: %v", err)
	}
	for _, bad := range []core.JobOptions{
		{Objective: "catchment"},                            // missing re=
		{Objective: "catchment:re=1.5"},                     // out of range
		{Objective: "summit:re=0.5"},                        // unknown kind
		{Objective: "catchment:re=0.5", Strategy: "anneal"}, // unknown strategy
		{Objective: "catchment:re=0.5", Budget: -1},         // negative budget
		{Budget: 10},         // -budget without -objective
		{Strategy: "evolve"}, // -strategy without -objective
		{Objective: "catchment:re=0.5", Workload: "update-storm"},
		{Objective: "catchment:re=0.5", Scenario: "hijack"},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
	// The fields must reach the pipeline's search configuration.
	opts := core.JobOptions{Objective: "probe:re=0.5,commodity=0.5,loss=0", Budget: 12, Strategy: "evolve"}.Pipeline(nil).OptimizeOptions()
	if opts.Objective != "probe:re=0.5,commodity=0.5,loss=0" || opts.Budget != 12 || opts.Strategy != "evolve" {
		t.Errorf("OptimizeOptions not threaded: %+v", opts)
	}
}

func TestNewRegistryNilWhenUnobserved(t *testing.T) {
	var c Config
	if c.NewRegistry() != nil {
		t.Error("registry allocated with no -manifest/-metrics")
	}
	if (Config{Manifest: "m.json"}).NewRegistry() == nil {
		t.Error("no registry with -manifest set")
	}
	if (Config{Metrics: true}).NewRegistry() == nil {
		t.Error("no registry with -metrics set")
	}
}

func TestPipelineWiring(t *testing.T) {
	c := Config{JobOptions: core.JobOptions{Small: true, Seed: 5, Workers: 3, Faults: 0.25}}
	pl := c.Pipeline(nil)
	checkSweepWiring(t, pl, 5, 3, 0.25)
	if pl.SurveyOptions().Topology.Seed != 5 {
		t.Errorf("survey topology seed = %d, want 5", pl.SurveyOptions().Topology.Seed)
	}
}

// TestManifestAndMetricsOutputs: -manifest writes the registry's
// manifest with the run's seed and the options given, -metrics the
// Prometheus exposition; without the flags both are no-ops.
func TestManifestAndMetricsOutputs(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("probes_total").Add(3)
	var off Config
	var buf bytes.Buffer
	if err := off.WriteManifest(reg, nil); err != nil {
		t.Fatal(err)
	}
	if err := off.DumpMetrics(&buf, reg); err != nil || buf.Len() != 0 {
		t.Fatalf("DumpMetrics without -metrics wrote %q (err %v)", buf.String(), err)
	}

	path := filepath.Join(t.TempDir(), "m.json")
	on := Config{JobOptions: core.JobOptions{Seed: 9}, Manifest: path, Metrics: true, ZeroTime: true}
	if err := on.WriteManifest(reg, map[string]int{"n": 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m telemetry.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var opts bytes.Buffer
	if err := json.Compact(&opts, m.Options); err != nil {
		t.Fatal(err)
	}
	if m.Seed != 9 || opts.String() != `{"n":1}` || m.Counter("probes_total") != 3 {
		t.Errorf("manifest seed %d options %s probes_total %d", m.Seed, opts.String(), m.Counter("probes_total"))
	}
	if err := on.DumpMetrics(&buf, reg); err != nil || !strings.Contains(buf.String(), "probes_total 3") {
		t.Errorf("DumpMetrics with -metrics wrote %q (err %v)", buf.String(), err)
	}
	if err := (Config{Manifest: filepath.Join(path, "sub", "m.json")}).WriteManifest(reg, nil); err == nil {
		t.Error("WriteManifest into a missing directory succeeded")
	}
}
