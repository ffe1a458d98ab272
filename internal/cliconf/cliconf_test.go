package cliconf

import (
	"flag"
	"math"
	"testing"

	"repro/internal/core"
)

func TestRegisterKeepsFieldDefaults(t *testing.T) {
	// Commands seed the Config with their historical defaults before
	// Register; parsing no flags must leave those values intact.
	c := Config{JobOptions: JobOptions{Small: true, Seed: 7}}
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
	want := Config{JobOptions: JobOptions{Small: true, Seed: 42, Workers: 8, Faults: 0.5}, Manifest: "m.json", Metrics: true, ZeroTime: true}
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
		JobOptions: JobOptions{Workload: "hijack-flash", DurationSeconds: 60, RoundMode: true,
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
	for _, bad := range []JobOptions{
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
	for _, good := range []JobOptions{
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
}

// TestJobValidationParity pins the CLI/server contract: a Config and
// the JobOptions it embeds accept and reject identically (with the same
// message), so a job submission resurveyd rejects is exactly one the
// flags would reject.
func TestJobValidationParity(t *testing.T) {
	for _, j := range []JobOptions{
		{},
		{Faults: -0.1},
		{Faults: 1.5},
		{Faults: math.NaN()},
		{Workers: -1},
		{Small: true, Seed: 7, Workers: 8, Faults: 0.5},
	} {
		c := Config{JobOptions: j}
		cfgErr, jobErr := c.Validate(), j.Validate()
		if (cfgErr == nil) != (jobErr == nil) {
			t.Errorf("Config(%+v): Validate=%v but JobOptions.Validate=%v", c, cfgErr, jobErr)
		} else if cfgErr != nil && cfgErr.Error() != jobErr.Error() {
			t.Errorf("Config(%+v): messages diverge: %q vs %q", c, cfgErr, jobErr)
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
	j := JobOptions{Small: true, Seed: 5, Workers: 3, Faults: 0.25}
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
	if err := (JobOptions{Scale: "planet"}).Validate(); err == nil {
		t.Error("-scale planet accepted")
	}
	if err := (JobOptions{Small: true, Scale: "paper"}).Validate(); err == nil {
		t.Error("-small with -scale paper accepted")
	}
	if err := (JobOptions{Small: true, Scale: "small"}).Validate(); err != nil {
		t.Errorf("-small with agreeing -scale small rejected: %v", err)
	}
	// The tier must reach the pipeline's topology configuration and
	// override -small.
	pl := JobOptions{Scale: "paper"}.Pipeline(nil)
	if got := pl.SurveyOptions().Topology; got.MembersUS == 0 || got.CompactRIB {
		t.Errorf("paper scale not installed: %+v", got)
	}
	pl = JobOptions{Scale: "internet"}.Pipeline(nil)
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
	for _, bad := range []JobOptions{
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
	opts := JobOptions{Objective: "probe:re=0.5,commodity=0.5,loss=0", Budget: 12, Strategy: "evolve"}.Pipeline(nil).OptimizeOptions()
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
	c := Config{JobOptions: JobOptions{Small: true, Seed: 5, Workers: 3, Faults: 0.25}}
	pl := c.Pipeline(nil)
	checkSweepWiring(t, pl, 5, 3, 0.25)
	if pl.SurveyOptions().Topology.Seed != 5 {
		t.Errorf("survey topology seed = %d, want 5", pl.SurveyOptions().Topology.Seed)
	}
}
