package vtime

import (
	"sort"
	"testing"
)

// BenchmarkEventEngine measures the raw dispatch loop: a population of
// self-rescheduling handlers (each with its own deterministic stride)
// churning through the queue until a fixed horizon. Beyond ns/op it
// reports sustained events/s and the p99 queue depth observed across
// dispatches — the two numbers that bound how large a workload the
// virtual clock can carry.
func BenchmarkEventEngine(b *testing.B) {
	const (
		population = 256
		horizon    = Time(4096)
	)
	var depths []int
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(0)
		for k := 0; k < population; k++ {
			stride := Time(16 + k%33)
			var tick Handler
			tick = func(now Time) {
				depths = append(depths, eng.Pending())
				if next := now + stride; next <= horizon {
					eng.At(next, tick)
				}
			}
			eng.At(stride, tick)
		}
		eng.RunUntil(horizon)
		events += eng.Dispatched()
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	sort.Ints(depths)
	p99 := depths[len(depths)*99/100]
	b.ReportMetric(float64(p99), "queue-depth-p99")
}
