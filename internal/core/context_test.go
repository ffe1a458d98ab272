package core

import (
	"context"
	"errors"
	"testing"
)

// TestCancelledContextStopsWithinOneRound is the satellite regression
// test for context plumbing: cancelling the context mid-survey must
// stop the convergence loop at the next round boundary — no further
// rounds run, and RunBothContext surfaces context.Canceled.
func TestCancelledContextStopsWithinOneRound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the reduced-scale world")
	}
	s := NewSurvey(SmallSurveyOptions())
	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	s.Progress = func(phase int, ev RoundProgress) {
		rounds++
		if phase != 0 {
			t.Errorf("progress from phase %d after cancellation, want only phase 0", phase)
		}
		if ev.Round == 2 {
			cancel()
		}
	}
	err := s.RunBothContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBothContext = %v, want context.Canceled", err)
	}
	if rounds != 2 {
		t.Errorf("%d rounds ran after cancel at round 2, want exactly 2 (stop within one round)", rounds)
	}
	if s.SURF != nil || s.Internet2 != nil {
		t.Errorf("cancelled run left partial results: SURF=%v Internet2=%v", s.SURF != nil, s.Internet2 != nil)
	}
}

// TestDeadlineStopsExperiment checks the deadline flavour on a bare
// experiment: an already-expired context yields no rounds at all.
func TestDeadlineStopsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the reduced-scale world")
	}
	s := NewSurvey(SmallSurveyOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.RunBothContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBothContext with pre-cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestFaultSweepContextCancelled checks the sweep entry point: a
// pre-cancelled context returns the context error and no points.
func TestFaultSweepContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultFaultSweepOptions()
	pts, err := RunFaultSweepContext(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunFaultSweepContext = %v, want context.Canceled", err)
	}
	if pts != nil {
		t.Errorf("cancelled sweep returned %d points, want none", len(pts))
	}
}
