package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliconf"
	"repro/internal/core"
)

// searchConfig is `-small -objective catchment:re=0.3 -strategy evolve
// -budget 8`: two generations of four candidates, a few dozen
// milliseconds.
func searchConfig() cliconf.Config {
	return cliconf.Config{JobOptions: core.JobOptions{Small: true, Seed: 1, Budget: 8, Objective: "catchment:re=0.3", Strategy: "evolve"}}
}

func runOut(t *testing.T, cfg cliconf.Config) string {
	t.Helper()
	if err := validate(cfg); err != nil {
		t.Fatalf("validate: %v", err)
	}
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	return buf.String()
}

func TestRunDeterministic(t *testing.T) {
	first := runOut(t, searchConfig())
	if !strings.Contains(first, "Improvement:") || !strings.Contains(first, "warm restores") {
		t.Fatalf("report is missing its result lines:\n%s", first)
	}
	if second := runOut(t, searchConfig()); second != first {
		t.Errorf("two identical runs differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

func TestRunWorkerWidthInvariant(t *testing.T) {
	narrow, wide := searchConfig(), searchConfig()
	narrow.Workers, wide.Workers = 1, 4
	if a, b := runOut(t, narrow), runOut(t, wide); a != b {
		t.Errorf("-workers 1 and -workers 4 differ:\n--- 1 ---\n%s\n--- 4 ---\n%s", a, b)
	}
}

// resultLines are the lines of a report that describe the search's
// outcome rather than the work this process did to reach it. A resumed
// run prints only the generations it evaluated itself and counts only
// its own restores, so these are what -resume must reproduce.
func resultLines(out string) []string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		for _, p := range []string{"optimizing ", "Baseline:", "Best:", "Improvement:"} {
			if strings.HasPrefix(line, p) {
				keep = append(keep, line)
			}
		}
	}
	return keep
}

func TestResumeReproducesResult(t *testing.T) {
	cold := runOut(t, searchConfig())

	cfg := searchConfig()
	cfg.SnapshotDir = t.TempDir()
	if got := runOut(t, cfg); got != cold {
		t.Fatalf("-snapshot-dir changed stdout:\n--- cold ---\n%s\n--- checkpointing ---\n%s", cold, got)
	}
	states, err := filepath.Glob(filepath.Join(cfg.SnapshotDir, "*.ropt"))
	if err != nil || len(states) != 2 {
		t.Fatalf("want one search state per generation (2), got %v (%v)", states, err)
	}
	// Drop the final state, as if the run had died inside generation 2.
	if err := os.Remove(states[len(states)-1]); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	resumed := runOut(t, cfg)
	if got, want := resultLines(resumed), resultLines(cold); len(want) != 4 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("resumed result differs from the cold run's:\n--- cold ---\n%s\n--- resumed ---\n%s", cold, resumed)
	}
	// Generation 1 came from the checkpoint: its row is gone, generation
	// 2's row is the cold run's.
	gen2 := ""
	for _, line := range strings.Split(cold, "\n") {
		if strings.HasPrefix(line, "2 ") {
			gen2 = line
		}
	}
	if gen2 == "" || !strings.Contains(resumed, gen2) || strings.Contains(resumed, "\n1 ") {
		t.Errorf("resumed trajectory should hold generation 2 only:\n%s", resumed)
	}
	// The run rewrote the state it was missing.
	if after, _ := filepath.Glob(filepath.Join(cfg.SnapshotDir, "*.ropt")); len(after) != 2 {
		t.Errorf("resumed run left %d search states, want 2", len(after))
	}
}

func TestResumeSkipsForeignCheckpoint(t *testing.T) {
	cfg := searchConfig()
	cfg.SnapshotDir = t.TempDir()
	runOut(t, cfg) // leaves budget-8 search states behind

	other := searchConfig()
	other.Budget = 12
	cold := runOut(t, other)
	other.SnapshotDir, other.Resume = cfg.SnapshotDir, true
	if got := runOut(t, other); got != cold {
		t.Errorf("a checkpoint of another budget must be skipped, not resumed:\n--- cold ---\n%s\n--- -resume ---\n%s", cold, got)
	}
}

func TestValidateRejectsEmptyObjective(t *testing.T) {
	cfg := searchConfig()
	cfg.Objective, cfg.Strategy = "", ""
	cfg.Budget = 0 // cliconf itself rejects a budget or strategy without an objective
	if err := validate(cfg); err == nil || !strings.Contains(err.Error(), "-objective is required") {
		t.Errorf("validate(no objective) = %v, want the -objective usage error", err)
	}
	if err := validate(searchConfig()); err != nil {
		t.Errorf("validate(%+v) = %v", searchConfig(), err)
	}
}
