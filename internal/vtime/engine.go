package vtime

import (
	"time"

	"repro/internal/telemetry"
)

// Handler is a scheduled callback; now is the virtual time it fires
// at (its scheduled time, which the clock has reached).
type Handler func(now Time)

// Engine is what workload runners program against: it schedules
// handlers at virtual times and runs the clock forward, firing each
// handler at its exact virtual timestamp. A Coupling hook keeps an
// external simulator in lockstep — before the clock advances to a
// later event time (and once more at the end of RunUntil), the hook is
// invoked with that time so the external side processes its own events
// up to it first. The workload runner wires it to bgp.Network.Run,
// making RFD reuse checks (and MRAI flushes, on a session that sets an
// interval; no generated world does) fire at their real virtual times
// interleaved with workload events.
type Engine struct {
	now Time
	q   Queue[Handler]

	// Coupling, when set, is called as Coupling(to) every time the
	// engine is about to advance its clock to `to`.
	Coupling func(to Time)

	dispatched int64
	wall       time.Duration
	virtual    Time

	metrics engineMetrics
}

// engineMetrics caches the vtime_* instruments; nil fields are the
// free disabled path.
type engineMetrics struct {
	dispatched *telemetry.Counter
	scheduled  *telemetry.Counter
	virtualSec *telemetry.Counter
	queueDepth *telemetry.Histogram
}

// NewEngine returns an engine whose clock starts at `start`.
func NewEngine(start Time) *Engine {
	return &Engine{now: start}
}

// SetMetrics wires the engine to the registry: events dispatched and
// scheduled (counters), virtual seconds simulated (counter), and the
// queue depth observed at each dispatch (histogram). All values are
// event counts, deterministic for a given schedule, so instrumented
// manifests stay byte-identical across runs and worker widths. The
// virtual-vs-wall ratio is deliberately NOT a registry metric —
// read it via SpeedupRatio and gate any gauge on the caller's
// zerotime setting, since wall time varies run to run.
func (e *Engine) SetMetrics(r *telemetry.Registry) {
	e.metrics = engineMetrics{
		dispatched: r.Counter("vtime_events_dispatched_total"),
		scheduled:  r.Counter("vtime_events_scheduled_total"),
		virtualSec: r.Counter("vtime_virtual_seconds_total"),
		queueDepth: r.Histogram("vtime_queue_depth", 0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Dispatched returns the total handlers dispatched so far.
func (e *Engine) Dispatched() int64 { return e.dispatched }

// At schedules h at time t (clamped to Now if in the past).
func (e *Engine) At(t Time, h Handler) {
	if t < e.now {
		t = e.now
	}
	e.q.Push(t, h)
	e.metrics.scheduled.Inc()
}

// RunUntil dispatches every handler due at or before t, coupling the
// external simulator forward at each clock advance, and leaves the
// clock at t. It returns the number of handlers dispatched.
func (e *Engine) RunUntil(t Time) int {
	wallStart := time.Now()
	from := e.now
	n := 0
	for {
		it, ok := e.q.Peek()
		if !ok || it.At > t {
			break
		}
		e.q.Pop()
		if it.At > e.now {
			e.advance(it.At)
		}
		e.metrics.queueDepth.Observe(float64(e.q.Len()))
		it.V(it.At)
		n++
	}
	if t > e.now {
		e.advance(t)
	}
	e.dispatched += int64(n)
	e.metrics.dispatched.Add(int64(n))
	e.virtual += e.now - from
	e.metrics.virtualSec.Add(int64(e.now - from))
	e.wall += time.Since(wallStart)
	return n
}

// advance couples the external simulator to `to` and moves the clock.
func (e *Engine) advance(to Time) {
	if e.Coupling != nil {
		e.Coupling(to)
	}
	e.now = to
}

// SpeedupRatio returns virtual seconds simulated per wall second — the
// virtual-vs-wall ratio of the telemetry surface. Callers recording it
// as a gauge must gate on their zerotime flag: wall time is
// nondeterministic by nature and would break byte-stable manifests.
func (e *Engine) SpeedupRatio() float64 {
	w := e.wall.Seconds()
	if w <= 0 {
		return 0
	}
	return float64(e.virtual) / w
}
