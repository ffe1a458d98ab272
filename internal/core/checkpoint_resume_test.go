package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bgp"
	"repro/internal/probe"
)

// deepCopyOrigins clones the CollectorOrigins map the way a serialized
// checkpoint would, so later mutations of the live result cannot leak
// into the resumed run.
func deepCopyOrigins(src map[uint32]*PeerView) map[uint32]*PeerView {
	out := make(map[uint32]*PeerView, len(src))
	for as, pv := range src {
		c := &PeerView{OriginsSeen: make(map[uint32]bool, len(pv.OriginsSeen)), FinalOrigin: pv.FinalOrigin}
		for o, b := range pv.OriginsSeen {
			c.OriginsSeen[o] = b
		}
		out[as] = c
	}
	return out
}

// TestSurveyCheckpointResume runs a survey cold while capturing one
// mid-experiment checkpoint, then rebuilds the world, restores the
// engine snapshot, and resumes — the resumed survey's results must be
// deeply equal to the cold run's.
func TestSurveyCheckpointResume(t *testing.T) {
	for _, tc := range []struct{ phase, done int }{{0, 2}, {1, 3}, {1, len(Schedule())}} {
		opts := SmallSurveyOptions()
		type saved struct {
			ck      SurveyCheckpoint
			engine  []byte
			rounds  []*probe.Round
			origins map[uint32]*PeerView
		}
		var got *saved
		cold := NewSurvey(opts)
		cold.Checkpoint = func(ck SurveyCheckpoint) {
			if ck.Phase != tc.phase || ck.Done != tc.done {
				return
			}
			var buf bytes.Buffer
			if err := cold.Eco.Net.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			got = &saved{
				ck:      ck,
				engine:  buf.Bytes(),
				rounds:  append([]*probe.Round(nil), ck.Partial.Rounds...),
				origins: deepCopyOrigins(ck.Partial.CollectorOrigins),
			}
		}
		cold.RunBoth()
		if got == nil {
			t.Fatalf("checkpoint (phase %d, done %d) never fired", tc.phase, tc.done)
		}

		res := NewSurvey(opts)
		if err := bgp.RestoreNetwork(bytes.NewReader(got.engine), res.Eco.Net); err != nil {
			t.Fatalf("restore: %v", err)
		}
		res.Resume = &SurveyResume{
			Phase: got.ck.Phase,
			Exp: &ExperimentResume{
				Done:             got.ck.Done,
				ChurnStart:       got.ck.ChurnStart,
				Rounds:           got.rounds,
				CollectorOrigins: got.origins,
			},
		}
		if got.ck.Phase == 1 {
			res.Resume.SURF = got.ck.SURF
			res.Resume.StartI2 = got.ck.Start
		}
		res.RunBoth()

		if !reflect.DeepEqual(cold.SURF, res.SURF) && got.ck.Phase == 0 {
			t.Fatalf("phase %d done %d: resumed SURF result diverged", tc.phase, tc.done)
		}
		if !reflect.DeepEqual(cold.Internet2, res.Internet2) {
			t.Fatalf("phase %d done %d: resumed Internet2 result diverged", tc.phase, tc.done)
		}
	}
}
