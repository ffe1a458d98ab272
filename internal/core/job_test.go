package core

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestJobOptionsWireFormat pins the JSON names of every JobOptions
// field: they are resurveyd's documented options keys and the options
// a job's manifest records.
func TestJobOptionsWireFormat(t *testing.T) {
	j := JobOptions{
		Small: true, Scale: "small", Seed: 7, Workers: 3, Faults: 0.5,
		Workload: "update-storm", DurationSeconds: 600, RoundMode: true,
		Scenario: "hijack", ROV: 0.25,
		Objective: "catchment:re=0.4", Budget: 16, Strategy: "evolve",
	}
	got, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"small":true,"scale":"small","seed":7,"workers":3,"faults":0.5,` +
		`"workload":"update-storm","duration_seconds":600,"round_mode":true,` +
		`"scenario":"hijack","rov":0.25,` +
		`"objective":"catchment:re=0.4","budget":16,"strategy":"evolve"}`
	if string(got) != want {
		t.Errorf("JobOptions wire format:\n got %s\nwant %s", got, want)
	}
	if got, _ := json.Marshal(JobOptions{}); string(got) != "{}" {
		t.Errorf("zero JobOptions encodes as %s, want {}", got)
	}
}

// TestJobOptionsOneMode: options name at most one run mode, and Mode
// reports the one they name.
func TestJobOptionsOneMode(t *testing.T) {
	for _, tc := range []struct {
		j    JobOptions
		mode RunMode
	}{
		{JobOptions{}, ModeSurvey},
		{JobOptions{Faults: 0.5}, ModeSurvey},
		{JobOptions{Workload: "update-storm", ROV: 0.5}, ModeWorkload},
		{JobOptions{Scenario: "leak"}, ModeScenario},
		{JobOptions{Objective: "catchment:re=0.4", Budget: 4}, ModeOptimize},
	} {
		if err := tc.j.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", tc.j, err)
		}
		if got := tc.j.Mode(); got != tc.mode {
			t.Errorf("Mode(%+v) = %s, want %s", tc.j, got, tc.mode)
		}
	}
	for _, j := range []JobOptions{
		{Faults: 0.5, Workload: "update-storm"},
		{Faults: 0.5, Scenario: "hijack"},
		{Faults: 0.5, Objective: "catchment:re=0.4"},
		{Workload: "update-storm", Scenario: "hijack"},
		{Workload: "update-storm", Objective: "catchment:re=0.4"},
		{Scenario: "hijack", Objective: "catchment:re=0.4"},
	} {
		if err := j.Validate(); err == nil || !strings.Contains(err.Error(), "pick one run mode") {
			t.Errorf("Validate(%+v) = %v, want a run-mode conflict", j, err)
		}
	}
}

// TestJobPipelineSeed: a job always sets the session seed, zero
// included, while NewPipeline without WithSeed keeps the survey's own.
func TestJobPipelineSeed(t *testing.T) {
	if got := (JobOptions{Small: true}).Pipeline(nil).Seed(); got != 0 {
		t.Errorf("JobOptions{Small}.Pipeline seed = %d, want 0", got)
	}
	if got, want := NewPipeline(WithSmall()).Seed(), SmallSurveyOptions().Topology.Seed; got != want {
		t.Errorf("NewPipeline(WithSmall()) seed = %d, want the survey's %d", got, want)
	}
	opts := SmallSurveyOptions()
	opts.Topology.Seed = 9
	if got := NewPipeline(WithSeed(4), WithSurvey(opts)).Seed(); got != 4 {
		t.Errorf("WithSeed under WithSurvey: seed = %d, want 4", got)
	}
	// Pipelines built from one WithSurvey option own their copies.
	with := WithSurvey(opts)
	first := NewPipeline(with, WithSeed(1))
	NewPipeline(with, WithSeed(2))
	if got := first.Seed(); got != 1 {
		t.Errorf("reused WithSurvey option: first pipeline seed = %d, want 1", got)
	}
}
