package telemetry

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// mergeSub fills a sweep point's registry: two closed spans, one span
// left open, counters, a gauge, histogram observations down to one
// micro, two shards and its own worker count.
func mergeSub() *Registry {
	sub := New()
	sub.SetClock((&fakeClock{t: time.Unix(1700000000, 0)}).now)
	pt := sub.StartSpan("point:0.50")
	sub.StartSpan("round").End()
	pt.End()
	sub.StartSpan("dangling")
	sub.Counter("a_total").Add(2)
	sub.Counter("b_total").Add(3)
	sub.Gauge("g").Set(2.5)
	h := sub.Histogram("h_ms", 1, 10)
	h.Observe(5)
	h.Observe(20)
	h.Observe(0.000001)
	sub.Histogram("h2_ms", 100).Observe(150)
	sub.SetWorkers(16)
	sub.AddShardTiming("probe", 0, 5, 2*time.Millisecond)
	sub.AddShardTiming("probe", 1, 7, 3*time.Millisecond)
	return sub
}

// TestMerge pins Merge's rules: spans renumbered after the target's
// own, histogram buckets and fixed-point sums exact (beyond what a
// float64 holds too), shard stats summed, gauges last-wins, and the
// sub-registry's open spans and worker count left behind.
func TestMerge(t *testing.T) {
	r := New()
	r.SetClock((&fakeClock{t: time.Unix(1600000000, 0)}).now)
	r.StartSpan("build").End()
	r.Counter("a_total").Add(1)
	r.Gauge("g").Set(1)
	r.Histogram("h_ms", 1, 10).Observe(0.5)
	r.SetWorkers(4)
	r.AddShardTiming("probe", 0, 10, time.Millisecond)

	sub := mergeSub()
	big := sub.Histogram("big_ms", 1)
	big.Observe(4e12)
	big.Observe(0.000001)
	r.Merge(sub)

	if a, b := r.Counter("a_total").Value(), r.Counter("b_total").Value(); a != 3 || b != 3 {
		t.Errorf("counters a=%d b=%d, want 3 3", a, b)
	}
	if g := r.Gauge("g").Value(); g != 2.5 {
		t.Errorf("gauge = %v, want the sub's 2.5", g)
	}
	h := r.Histogram("h_ms")
	var got []int64
	for i := range h.buckets {
		got = append(got, h.buckets[i].Load())
	}
	if !reflect.DeepEqual(got, []int64{2, 1, 1}) || h.Count() != 4 || h.sumMicros.Load() != 25_500_001 {
		t.Errorf("h_ms buckets %v count %d sum %d micros, want [2 1 1] 4 25500001", got, h.Count(), h.sumMicros.Load())
	}
	if got := r.Histogram("big_ms").sumMicros.Load(); got != 4_000_000_000_000_000_001 {
		t.Errorf("big_ms sum = %d micros, want 4000000000000000001", got)
	}
	if h2 := r.Histogram("h2_ms"); len(h2.bounds) != 1 || h2.bounds[0] != 100 || h2.Count() != 1 || h2.Sum() != 150 {
		t.Errorf("h2_ms bounds %v count %d sum %v", h2.bounds, h2.Count(), h2.Sum())
	}

	var paths []string
	var seqs []int
	for _, p := range r.Phases() {
		paths = append(paths, p.Path)
		seqs = append(seqs, p.Seq)
	}
	if !reflect.DeepEqual(paths, []string{"build", "point:0.50", "point:0.50/round"}) || !reflect.DeepEqual(seqs, []int{0, 1, 2}) {
		t.Errorf("phases %v seqs %v", paths, seqs)
	}
	if len(r.active) != 0 {
		t.Errorf("merged %d open spans from the sub-registry", len(r.active))
	}
	// The sub's sequence counter counted its open span too: the next
	// span starts after all three.
	if sp := r.StartSpan("next"); sp.seq != 4 {
		t.Errorf("next span seq = %d, want 4", sp.seq)
	}

	m, err := r.Snapshot(SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Parallel.Workers != 4 {
		t.Errorf("workers = %d, want the target's 4", m.Parallel.Workers)
	}
	want := []ShardTiming{
		{Phase: "probe", Shard: 0, Items: 15, Calls: 2, DurationMS: 3},
		{Phase: "probe", Shard: 1, Items: 7, Calls: 1, DurationMS: 3},
	}
	if !reflect.DeepEqual(m.Parallel.Shards, want) {
		t.Errorf("shards = %+v, want %+v", m.Parallel.Shards, want)
	}
}

// TestMergeEqualsLoadState: loading a registry's saved state into a
// fresh registry gives the manifest that merging the registry itself
// gives.
func TestMergeEqualsLoadState(t *testing.T) {
	sub := mergeSub()
	var saved bytes.Buffer
	if err := sub.SaveState(&saved); err != nil {
		t.Fatal(err)
	}
	merged, loaded := New(), New()
	merged.Merge(sub)
	if _, err := loaded.LoadState(&saved); err != nil {
		t.Fatal(err)
	}
	manifest := func(r *Registry) []byte {
		m, err := r.Snapshot(SnapshotOptions{Version: "vtest", ZeroDurations: true})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := m.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if a, b := manifest(merged), manifest(loaded); !bytes.Equal(a, b) {
		t.Errorf("Merge and LoadState manifests differ:\n--- merge ---\n%s\n--- load ---\n%s", a, b)
	}
	if a, b := merged.Phases(), loaded.Phases(); !reflect.DeepEqual(a, b) {
		t.Errorf("phase timings differ:\n merge %+v\n load  %+v", a, b)
	}
}
