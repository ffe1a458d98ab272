// Package telemetry is the reproduction's observability layer: a
// dependency-free, concurrency-safe registry of counters, gauges, and
// fixed-bucket histograms; nestable phase spans recording wall time
// per experiment → prepend-config → round; and a run manifest that
// snapshots seed, options, version, phase durations, and every metric
// value to deterministic JSON (see manifest.go).
//
// The subsystem is opt-in and free when disabled: every method is
// nil-receiver safe, so instrumented code holds plain *Counter /
// *Gauge / *Histogram fields (or a *Registry) that are simply nil
// until someone wires a live registry in. The disabled path is a
// single nil check — no allocation, no atomic, no lock — which
// BenchmarkNoopRegistry verifies stays at 0 B/op.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64. A nil Counter is a
// valid no-op, which is how disabled instrumentation costs nothing.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative n is ignored; counters
// only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64. A nil Gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: bucket i counts observations
// v <= bounds[i], with one implicit +Inf bucket at the end. A nil
// Histogram is a valid no-op.
//
// The running sum is kept as fixed-point microseconds-of-value
// (v * 1e6, rounded) in an atomic int64 rather than a float CAS loop:
// integer addition is commutative and associative, so the sum is
// bit-identical no matter how observations interleave across shards —
// a float accumulator would drift in the last ulp with merge order and
// break the byte-identical-manifest guarantee of parallel runs.
type Histogram struct {
	bounds    []float64
	buckets   []atomic.Int64 // len(bounds)+1; last is +Inf
	count     atomic.Int64
	sumMicros atomic.Int64 // sum of round(v*1e6); order-independent
}

// Observe records one value. Non-finite values still count toward
// buckets and Count but are excluded from the sum (fixed-point has no
// NaN/Inf representation).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		h.sumMicros.Add(int64(math.Round(v * 1e6)))
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values, at fixed-point 1e-6
// resolution.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumMicros.Load()) / 1e6
}

// Registry owns the metric namespace and the span tree of one run.
// All methods are safe for concurrent use and nil-receiver safe: a
// nil *Registry hands out nil metrics and nil spans, so the entire
// instrumented pipeline runs un-observed at zero cost.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spanMu sync.Mutex
	now    func() time.Time
	epoch  time.Time
	active []*Span
	seq    int
	phases []SpanRecord

	parMu      sync.Mutex
	workers    int
	shardStats map[shardKey]shardStat
}

// shardKey identifies one shard of one sharded phase; its stats
// accumulate across rounds so the manifest stays compact no matter how
// many times the phase runs.
type shardKey struct {
	phase string
	shard int
}

type shardStat struct {
	items int64
	calls int64
	durNS int64
}

// New returns an empty live registry using the wall clock.
func New() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		now:      time.Now,

		shardStats: make(map[shardKey]shardStat),
	}
	r.epoch = r.now()
	return r
}

// SetClock replaces the time source (tests use a fake clock to make
// span durations deterministic). It resets the epoch to the new
// clock's current time.
func (r *Registry) SetClock(now func() time.Time) {
	if r == nil {
		return
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	r.now = now
	r.epoch = now()
}

// Counter returns (creating on first use) the named counter, or nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counter(name)
}

// Gauge returns (creating on first use) the named gauge, or nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauge(name)
}

// DefaultLatencyBounds suits millisecond-scale RTT observations.
var DefaultLatencyBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// Histogram returns (creating on first use) the named histogram, or
// nil on a nil registry. Bounds must be sorted ascending; they are
// fixed on first creation and later calls reuse the existing buckets
// regardless of the bounds argument. Empty bounds use
// DefaultLatencyBounds.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histogram(name, bounds)
}

// counter, gauge and histogram are the getters' bodies, for callers
// that hold r.mu.
func (r *Registry) counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

func (r *Registry) gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

func (r *Registry) histogram(name string, bounds []float64) *Histogram {
	h := r.hists[name]
	if h == nil {
		b := append([]float64(nil), bounds...)
		h = &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// SetWorkers records the resolved worker count of the run for the
// manifest's parallel section (zeroed under ZeroDurations so manifests
// stay comparable across worker counts).
func (r *Registry) SetWorkers(n int) {
	if r == nil {
		return
	}
	r.parMu.Lock()
	defer r.parMu.Unlock()
	r.workers = n
}

// AddShardTiming accumulates one shard execution of a sharded phase:
// items processed, one call, and wall-clock duration. Stats with the
// same (phase, shard) key accumulate across rounds. Items and calls
// are deterministic (they depend only on the work, not the workers);
// duration is wall time and is zeroed under ZeroDurations.
func (r *Registry) AddShardTiming(phase string, shard, items int, d time.Duration) {
	if r == nil {
		return
	}
	r.parMu.Lock()
	defer r.parMu.Unlock()
	r.addShard(shardKey{phase: phase, shard: shard}, int64(items), 1, d.Nanoseconds())
}

// addShard accumulates into one shard's stats; r.parMu is held.
func (r *Registry) addShard(k shardKey, items, calls, durNS int64) {
	s := r.shardStats[k]
	r.shardStats[k] = shardStat{items: s.items + items, calls: s.calls + calls, durNS: s.durNS + durNS}
}

// Merge folds a sub-registry into r by add's rules: counters and
// histogram buckets add, gauges take the sub value, phase spans append
// with their seq renumbered after r's existing spans, and shard stats
// accumulate. The sub-registry's open spans and worker count stay
// behind, and a histogram whose bucket count differs from r's panics.
// The fault sweep uses this to give each intensity point its own
// registry while points run concurrently, then merge them back in
// intensity order — so the merged registry is identical for any worker
// count. Merge itself must be called sequentially (one goroutine),
// never while sub is still being written.
func (r *Registry) Merge(sub *Registry) {
	if r == nil || sub == nil || r == sub {
		return
	}
	st := sub.state()
	st.Workers, st.Open = 0, nil
	if _, err := r.add(st); err != nil {
		panic(err) // one program filled both registries: a histogram's bounds disagree
	}
}

// Label renders the `name{key="value"}` convention used to split one
// logical metric by a dimension (classification label, VLAN, fault
// kind). The full string is the registry key; exposition and manifest
// output keep series of one base name adjacent because keys sort
// together.
func Label(name, key, value string) string {
	return name + `{` + key + `="` + value + `"}`
}
