package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bgp"
	"repro/internal/telemetry"
)

// testFP is the fingerprint the checkpoint tests write and resume under.
var testFP = CheckpointFingerprint{Seed: 1, Small: true, NSeeds: 1}

// runWritingCheckpoints runs a small survey cold, writing every round's
// checkpoint into dir through WriteCheckpoint. After each write it
// calls hook (when non-nil) with the network at that round; the run
// stops at the next round boundary once hook returns true.
func runWritingCheckpoints(t testing.TB, dir string, reg *telemetry.Registry, hook func(net *bgp.Network, ck *Checkpoint) bool) *Survey {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewPipeline(WithSmall(), WithMetrics(reg)).NewSurvey()
	s.Checkpoint = func(ck *Checkpoint) {
		if err := WriteCheckpoint(dir, testFP, ck, s.Eco.Net, reg); err != nil {
			t.Fatal(err)
		}
		if hook != nil && hook(s.Eco.Net, ck) {
			cancel()
		}
	}
	if err := s.RunBothContext(ctx); err != nil && ctx.Err() == nil {
		t.Fatal(err)
	}
	return s
}

// TestResumeFromCheckpointFile runs a survey cold, writing every round's
// checkpoint, then resumes a fresh world from single checkpoints
// through the production path (file → OpenSurvey → RunBoth): the
// resumed survey's results must be deeply equal to the cold run's, once
// both hold their rounds in the record layout the checkpoint decodes to.
func TestResumeFromCheckpointFile(t *testing.T) {
	all := t.TempDir()
	cold := runWritingCheckpoints(t, all, nil, nil)
	for _, tc := range []struct{ phase, done int }{{0, 2}, {1, 3}, {1, len(Schedule())}} {
		name := CheckpointName(tc.phase, tc.done)
		data, err := os.ReadFile(filepath.Join(all, name))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, corrupt, err := NewPipeline(WithSmall()).OpenSurvey(dir, testFP, nil)
		if err != nil || corrupt != 0 || res.Resume == nil ||
			res.Resume.Phase != tc.phase || res.Resume.Done != tc.done {
			t.Fatalf("%s: resume=%+v corrupt=%d err=%v, want the checkpoint accepted", name, res.Resume, corrupt, err)
		}
		if err := res.RunBothContext(context.Background()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(inRecordLayout(cold.SURF), inRecordLayout(res.SURF)) {
			t.Fatalf("%s: resumed SURF result diverged", name)
		}
		if !reflect.DeepEqual(inRecordLayout(cold.Internet2), inRecordLayout(res.Internet2)) {
			t.Fatalf("%s: resumed Internet2 result diverged", name)
		}
	}
}

// TestResumeRejectsCraftedProgress writes CRC-valid checkpoints of the
// SURF experiment's third round through WriteCheckpoint, each with one
// progress field a resumed run must not trust, and resumes each. A
// file whose counts disagree is skipped and counted like a corrupt one
// and the run starts cold; a churn start past the restored churn log
// is an error. None may panic or yield a silently wrong survey.
func TestResumeRejectsCraftedProgress(t *testing.T) {
	cases := []struct {
		name  string
		craft func(ck *Checkpoint)
		// wantErr: the file is accepted and the resumed run fails,
		// instead of the file being refused and the run starting cold.
		wantErr bool
	}{
		{name: "done-beyond-schedule", craft: func(ck *Checkpoint) {
			ck.Done = len(Schedule()) + 1
			for len(ck.Rounds) < ck.Done {
				ck.Rounds = append(ck.Rounds, ck.Rounds[0])
			}
		}},
		{name: "done-without-rounds", craft: func(ck *Checkpoint) { ck.Rounds = nil }},
		{name: "churn-start-beyond-log", craft: func(ck *Checkpoint) { ck.ChurnStart = 1 << 30 }, wantErr: true},
	}
	dirs := make([]string, len(cases))
	for i := range cases {
		dirs[i] = t.TempDir()
	}
	ref := runWritingCheckpoints(t, t.TempDir(), nil, func(net *bgp.Network, ck *Checkpoint) bool {
		if ck.Phase != 0 || ck.Done != 3 {
			return false
		}
		for i, tc := range cases {
			c := *ck
			c.Rounds = ck.Rounds[:len(ck.Rounds):len(ck.Rounds)]
			tc.craft(&c)
			if err := WriteCheckpoint(dirs[i], testFP, &c, net, nil); err != nil {
				t.Fatal(err)
			}
		}
		return false
	})

	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, corrupt, err := NewPipeline(WithSmall()).OpenSurvey(dirs[i], testFP, nil)
			if err != nil {
				t.Fatal(err)
			}
			err = s.RunBothContext(context.Background())
			if tc.wantErr {
				if s.Resume == nil || corrupt != 0 {
					t.Fatalf("resume=%v corrupt=%d, want the checkpoint accepted", s.Resume != nil, corrupt)
				}
				if err == nil {
					t.Fatal("resumed past the restored churn log without an error")
				}
				return
			}
			if s.Resume != nil || corrupt != 1 {
				t.Fatalf("resume=%v corrupt=%d, want the checkpoint refused and counted", s.Resume != nil, corrupt)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.SURF, s.SURF) || !reflect.DeepEqual(ref.Internet2, s.Internet2) {
				t.Fatal("the cold start diverged from the uninterrupted run")
			}
		})
	}
}
