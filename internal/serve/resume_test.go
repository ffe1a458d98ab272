package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// runToDone submits spec on a fresh server over dir and returns the
// finished job's output bytes.
func runToDone(t *testing.T, dir string, spec JobSpec) []byte {
	t.Helper()
	s := newTestServer(t, Config{DataDir: dir})
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.done
	if st := s.jobState(j.ID); st != StateDone {
		s.mu.Lock()
		msg := j.errMsg
		s.mu.Unlock()
		t.Fatalf("job finished %s (%s), want done", st, msg)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.output
}

// TestKillAndRestartByteEqual is the crash-recovery acceptance check:
// a server killed mid-survey (emulated via the checkpoint-hook crash
// knob, which leaves durable state exactly as a SIGKILL would) is
// restarted on the same data dir, resumes the interrupted job from its
// newest checkpoint, and produces output byte-for-byte equal to an
// uninterrupted run of the same spec — at any worker count.
func TestKillAndRestartByteEqual(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			spec := JobSpec{Options: core.JobOptions{
				Small: true, Seed: 1, Workers: workers,
			}}

			cold := runToDone(t, t.TempDir(), spec)
			if len(cold) == 0 {
				t.Fatal("cold run produced empty output")
			}

			// Crash after the third durable checkpoint.
			dir := t.TempDir()
			s := newTestServer(t, Config{DataDir: dir})
			s.crashAfterCheckpoints = 3
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			<-j.done // released by the emulated crash, no terminal state
			if got := s.counter("serve_checkpoints_total"); got != 3 {
				t.Fatalf("serve_checkpoints_total = %d, want 3 before the crash", got)
			}
			if st := s.jobState(j.ID); st != StateCheckpointed {
				t.Fatalf("crashed job left in %s, want checkpointed", st)
			}
			// The durable manifest agrees with the in-memory state, and the
			// checkpoints are on disk — the restart has something to resume.
			recs, corrupt := loadJobRecords(dir)
			if corrupt != 0 || len(recs) != 1 || recs[0].State != StateCheckpointed {
				t.Fatalf("durable state after crash: %d records (%d corrupt)", len(recs), corrupt)
			}
			cks, _ := filepath.Glob(filepath.Join(dir, j.ID, "*.rckp"))
			if len(cks) == 0 {
				t.Fatal("crash left no checkpoint files")
			}

			// Restart: a fresh server over the same dir recovers the job,
			// resumes it, and finishes it.
			s2 := newTestServer(t, Config{DataDir: dir})
			if got := s2.counter("serve_jobs_recovered_total"); got != 1 {
				t.Fatalf("serve_jobs_recovered_total = %d, want 1", got)
			}
			s2.Start()
			j2 := s2.job(j.ID)
			if j2 == nil {
				t.Fatalf("restarted server lost job %s", j.ID)
			}
			<-j2.done
			if st := s2.jobState(j.ID); st != StateDone {
				t.Fatalf("resumed job finished %s, want done", st)
			}
			if got := s2.counter("serve_jobs_resumed_total"); got != 1 {
				t.Errorf("serve_jobs_resumed_total = %d, want 1", got)
			}

			s2.mu.Lock()
			resumed := j2.output
			s2.mu.Unlock()
			if !bytes.Equal(cold, resumed) {
				t.Fatalf("resumed output diverged from the uninterrupted run:\ncold    %d bytes\nresumed %d bytes", len(cold), len(resumed))
			}
		})
	}
}

// TestOptimizeKillAndRestart: a server killed mid-search (via the
// checkpoint crash knob) restarts on the same data dir, recovers the
// job — the RJOB v2 manifest preserves the objective, budget, and
// strategy — and resumes from the newest search-state checkpoint
// instead of re-evaluating the finished generations. The resumed
// search settles on the identical best configuration and score.
func TestOptimizeKillAndRestart(t *testing.T) {
	spec := JobSpec{Kind: "optimize", Options: core.JobOptions{
		Small: true, Seed: 1, Workers: 2,
		Objective: "catchment:re=0.3", Budget: 8, Strategy: "evolve",
	}}
	summaryOf := func(out []byte) *optimizeSummary {
		t.Helper()
		var doc jobOutput
		if err := json.Unmarshal(out, &doc); err != nil || doc.Optimize == nil {
			t.Fatalf("bad output document (%v): %s", err, out)
		}
		return doc.Optimize
	}
	cold := summaryOf(runToDone(t, t.TempDir(), spec))

	// Crash after the first generation's durable search state.
	dir := t.TempDir()
	s := newTestServer(t, Config{DataDir: dir})
	s.crashAfterCheckpoints = 1
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.done // released by the emulated crash, no terminal state
	if st := s.jobState(j.ID); st != StateCheckpointed {
		t.Fatalf("crashed job left in %s, want checkpointed", st)
	}
	ropts, _ := filepath.Glob(filepath.Join(dir, j.ID, "*.ropt"))
	if len(ropts) != 1 {
		t.Fatalf("crash left %d search-state files, want 1", len(ropts))
	}

	s2 := newTestServer(t, Config{DataDir: dir})
	if got := s2.counter("serve_jobs_recovered_total"); got != 1 {
		t.Fatalf("serve_jobs_recovered_total = %d, want 1", got)
	}
	s2.Start()
	j2 := s2.job(j.ID)
	if j2 == nil {
		t.Fatalf("restarted server lost job %s", j.ID)
	}
	<-j2.done
	if st := s2.jobState(j.ID); st != StateDone {
		s2.mu.Lock()
		msg := j2.errMsg
		s2.mu.Unlock()
		t.Fatalf("resumed job finished %s (%s), want done", st, msg)
	}
	if got := s2.counter("serve_jobs_resumed_total"); got != 1 {
		t.Errorf("serve_jobs_resumed_total = %d, want 1", got)
	}
	s2.mu.Lock()
	out := j2.output
	s2.mu.Unlock()
	resumed := summaryOf(out)
	if resumed.BestScore != cold.BestScore || resumed.BestConfig != cold.BestConfig ||
		resumed.Evaluated != cold.Evaluated {
		t.Fatalf("resumed search diverged:\ncold    %+v\nresumed %+v", cold, resumed)
	}
	// The resumed run re-evaluated only the post-crash generations, so
	// it cost strictly fewer evaluation decision runs than the cold run.
	if resumed.EvalDecisionRuns >= cold.EvalDecisionRuns {
		t.Errorf("resume did not save work: %d decision runs vs cold %d",
			resumed.EvalDecisionRuns, cold.EvalDecisionRuns)
	}
}

// TestResumeFromTelemetryFreeCheckpoint: a checkpoint written without a
// registry (resurvey without -manifest or -metrics) carries no
// telemetry. The job resumes from it, as the CLI does, instead of
// skipping it as unusable, and its survey results equal the cold run's;
// only the manifest, which restarts from an empty registry, differs.
func TestResumeFromTelemetryFreeCheckpoint(t *testing.T) {
	spec := JobSpec{Options: core.JobOptions{Small: true, Seed: 3}}
	var cold jobOutput
	if err := json.Unmarshal(runToDone(t, t.TempDir(), spec), &cold); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s := newTestServer(t, Config{DataDir: dir})
	s.crashAfterCheckpoints = 3
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.done
	cks, _ := filepath.Glob(filepath.Join(dir, j.ID, "*.rckp"))
	if len(cks) == 0 {
		t.Fatal("crash left no checkpoint files")
	}
	for _, path := range cks {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		c.Telemetry = nil
		if err := os.WriteFile(path, c.Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newTestServer(t, Config{DataDir: dir})
	s2.Start()
	j2 := s2.job(j.ID)
	<-j2.done
	if st := s2.jobState(j.ID); st != StateDone {
		t.Fatalf("resumed job finished %s, want done", st)
	}
	if got := s2.counter("serve_jobs_resumed_total"); got != 1 {
		t.Fatalf("serve_jobs_resumed_total = %d, want 1: the telemetry-free checkpoint was skipped", got)
	}
	s2.mu.Lock()
	out := j2.output
	s2.mu.Unlock()
	var resumed jobOutput
	if err := json.Unmarshal(out, &resumed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.SURF, cold.SURF) || !reflect.DeepEqual(resumed.Internet2, cold.Internet2) {
		t.Fatal("survey results resumed from a telemetry-free checkpoint diverged from the cold run")
	}
}

// TestResumeSkipsCorruptCheckpoint: a newest checkpoint that cannot be
// used falls back to the next-newest usable one, and to a cold start
// when none is left; either way the job finishes with the cold run's
// bytes. Unusable means torn on disk, or intact but carrying an engine
// section this world cannot take — here the frozen RBGP v1 golden
// file, refused like a snapshot of another topology would be, which
// the options fingerprint cannot tell apart from the job's own.
func TestResumeSkipsCorruptCheckpoint(t *testing.T) {
	spec := JobSpec{Options: core.JobOptions{Small: true, Seed: 3}}
	cold := runToDone(t, t.TempDir(), spec)

	foreignEngine := func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		if c.Engine, err = os.ReadFile(filepath.Join("..", "bgp", "testdata", "golden_v1.rbgp")); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, c.Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, cks []string)
	}{
		// A torn write that beat the atomic-rename discipline (e.g.
		// disk corruption).
		{"truncated", func(t *testing.T, cks []string) {
			if err := os.Truncate(cks[len(cks)-1], 10); err != nil {
				t.Fatal(err)
			}
		}},
		{"foreign-engine", func(t *testing.T, cks []string) { foreignEngine(t, cks[len(cks)-1]) }},
		{"every-engine-foreign", func(t *testing.T, cks []string) {
			for _, ck := range cks {
				foreignEngine(t, ck)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := newTestServer(t, Config{DataDir: dir})
			s.crashAfterCheckpoints = 3
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			<-j.done

			cks, _ := filepath.Glob(filepath.Join(dir, j.ID, "*.rckp"))
			if len(cks) < 2 {
				t.Fatalf("want >= 2 checkpoints to damage one, got %d", len(cks))
			}
			tc.damage(t, cks)

			s2 := newTestServer(t, Config{DataDir: dir})
			s2.Start()
			j2 := s2.job(j.ID)
			<-j2.done
			if st := s2.jobState(j.ID); st != StateDone {
				s2.mu.Lock()
				msg := j2.errMsg
				s2.mu.Unlock()
				t.Fatalf("resumed job finished %s (%s), want done", st, msg)
			}
			s2.mu.Lock()
			resumed := j2.output
			s2.mu.Unlock()
			if !bytes.Equal(cold, resumed) {
				t.Fatal("resume after unusable-checkpoint fallback diverged from the cold run")
			}
		})
	}
}
