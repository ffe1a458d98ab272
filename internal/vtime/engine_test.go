package vtime

import (
	"slices"
	"testing"

	"repro/internal/telemetry"
)

// TestEngineDispatchOrder schedules handlers out of order and requires
// (time, seq) dispatch with the clock at each handler's timestamp.
func TestEngineDispatchOrder(t *testing.T) {
	e := NewEngine(0)
	var got []int
	var times []Time
	rec := func(id int) Handler {
		return func(now Time) {
			got = append(got, id)
			times = append(times, now)
			if e.Now() != now {
				t.Errorf("handler %d: engine clock %d != handler time %d", id, e.Now(), now)
			}
		}
	}
	e.At(30, rec(2))
	e.At(10, rec(0))
	e.At(30, rec(3)) // same time as id 2, scheduled later: fires after
	e.At(20, rec(1))
	if e.q.Len() != 4 {
		t.Fatalf("queued = %d, want 4", e.q.Len())
	}
	if n := e.RunUntil(25); n != 2 {
		t.Fatalf("RunUntil(25) dispatched %d, want 2", n)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %d, want 25", e.Now())
	}
	if n := e.RunUntil(100); n != 2 {
		t.Fatalf("RunUntil(100) dispatched %d, want 2", n)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("dispatch order %v", got)
		}
	}
	wantTimes := []Time{10, 20, 30, 30}
	for i := range times {
		if times[i] != wantTimes[i] {
			t.Fatalf("handler times %v, want %v", times, wantTimes)
		}
	}
	if e.Dispatched() != 4 {
		t.Fatalf("Dispatched = %d, want 4", e.Dispatched())
	}
	if e.RunUntil(50); e.Now() != 100 {
		t.Fatalf("RunUntil(50) after 100 left the clock at %d; it never rewinds", e.Now())
	}
}

// TestEnginePastClamp schedules a handler in the past and requires it
// to fire at Now, never rewinding the clock.
func TestEnginePastClamp(t *testing.T) {
	e := NewEngine(50)
	var at Time = -1
	e.At(10, func(now Time) { at = now })
	e.RunUntil(60)
	if at != 50 {
		t.Fatalf("past handler fired at %d, want clamp to 50", at)
	}
}

// TestEngineCoupling requires the coupling hook to run before the
// clock reaches each new event time and again at the end of RunUntil,
// once per advance, in increasing order.
func TestEngineCoupling(t *testing.T) {
	e := NewEngine(0)
	var tos []Time
	e.Coupling = func(to Time) { tos = append(tos, to) }
	fired := false
	e.At(10, func(now Time) {
		fired = true
		// At the handler's dispatch the external side must already be
		// coupled to its timestamp.
		if len(tos) == 0 || tos[len(tos)-1] != 10 {
			t.Errorf("coupling had not reached t=10 at dispatch: %v", tos)
		}
	})
	e.At(10, func(Time) {}) // same instant: no second coupling
	e.RunUntil(25)
	if !fired {
		t.Fatal("handler did not fire")
	}
	if !slices.Equal(tos, []Time{10, 25}) {
		t.Fatalf("coupling targets %v, want [10 25]", tos)
	}
}

// TestEngineHandlersSchedule requires handlers to be able to schedule
// further work, including at their own timestamp.
func TestEngineHandlersSchedule(t *testing.T) {
	e := NewEngine(0)
	var seq []Time
	e.At(5, func(now Time) {
		seq = append(seq, now)
		e.At(now, func(n2 Time) { seq = append(seq, n2) })    // same instant
		e.At(now+10, func(n2 Time) { seq = append(seq, n2) }) // later
	})
	e.RunUntil(100)
	want := []Time{5, 5, 15}
	if len(seq) != len(want) {
		t.Fatalf("fired at %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("fired at %v, want %v", seq, want)
		}
	}
}

// TestEngineMetrics requires the vtime_* instruments to record
// deterministic event counts.
func TestEngineMetrics(t *testing.T) {
	reg := telemetry.New()
	e := NewEngine(0)
	e.SetMetrics(reg)
	for i := 0; i < 5; i++ {
		e.At(Time(i+1), func(Time) {})
	}
	e.RunUntil(10)
	if v := reg.Counter("vtime_events_scheduled_total").Value(); v != 5 {
		t.Fatalf("scheduled counter = %d, want 5", v)
	}
	if v := reg.Counter("vtime_events_dispatched_total").Value(); v != 5 {
		t.Fatalf("dispatched counter = %d, want 5", v)
	}
	if v := reg.Counter("vtime_virtual_seconds_total").Value(); v != 10 {
		t.Fatalf("virtual seconds counter = %d, want 10", v)
	}
	if c := reg.Histogram("vtime_queue_depth").Count(); c != 5 {
		t.Fatalf("queue depth observations = %d, want 5", c)
	}
	if e.virtual != 10 {
		t.Fatalf("virtual seconds = %v, want 10", e.virtual)
	}
	if e.wall < 0 {
		t.Fatalf("wall time = %v", e.wall)
	}
	// The ratio is wall-time dependent (nondeterministic) but must be
	// non-negative and finite-by-construction.
	if r := e.SpeedupRatio(); r < 0 {
		t.Fatalf("SpeedupRatio = %v", r)
	}
}
