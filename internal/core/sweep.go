package core

import (
	"context"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// The fault sweep (resilience.go) and the scenario sweep (scenario.go)
// are the same experiment design: every point is an independent
// controlled experiment on a world of its own, built and converged
// from scratch. Nothing is shared between points — at these scales a
// snapshot rewind costs what the convergence it would skip costs (see
// EXPERIMENTS.md, "Warm start") — so the two runners differ only in
// their point bodies and share the loop and the world set-up below.

// sweepPoints runs n independent sweep points, at most workers at a
// time (<= 0 means GOMAXPROCS), and returns their outcomes in point
// order. When metrics is non-nil each point records into a private
// sub-registry (nil otherwise); the sub-registries merge into metrics
// in point order after every point has finished, followed by the
// per-shard timings under phase, so the merged registry — and any
// manifest taken of it — is identical for any workers value. The
// context is checked before each point starts; a cancelled context
// returns its error with nil outcomes and leaves metrics untouched
// (points are independent worlds, so there is nothing to unwind).
func sweepPoints[T any](ctx context.Context, n, workers int, metrics *telemetry.Registry, phase string,
	point func(i int, reg *telemetry.Registry) T) ([]T, error) {
	type pointOut struct {
		pt  T
		reg *telemetry.Registry
	}
	outs, timings := parallel.CollectTimed(n, 1, workers,
		func(s parallel.Shard) pointOut {
			if ctx.Err() != nil {
				// Cancelled: skip the point; the whole sweep is discarded below.
				return pointOut{}
			}
			var reg *telemetry.Registry
			if metrics != nil {
				reg = telemetry.New()
			}
			return pointOut{pt: point(s.Lo, reg), reg: reg}
		})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	points := make([]T, 0, len(outs))
	for _, o := range outs {
		metrics.Merge(o.reg)
		points = append(points, o.pt)
	}
	for _, t := range timings {
		metrics.AddShardTiming(phase, t.Shard, t.Items, t.Duration)
	}
	return points, nil
}

// newPointWorld builds one sweep point's world: a fresh survey and its
// Internet2-style experiment starting at 09:00, both recording into
// reg, plus the measured window injected schedules are generated over.
// Probing and classification run single-worker inside a point: the
// sweep's parallelism budget is spent across points.
func newPointWorld(opts SurveyOptions, reg *telemetry.Registry) (*Survey, *Experiment, faults.Window) {
	s := NewSurvey(opts)
	s.SetMetrics(reg)
	s.Workers = 1
	s.Prober.Workers = 1
	start := bgp.Time(9 * 3600)
	x := NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, start)
	x.Metrics = reg
	x.Workers = 1
	return s, x, faults.Window{
		Start: start,
		End:   start + bgp.Time(len(Schedule())+1)*x.Cfg.RoundGap,
	}
}
