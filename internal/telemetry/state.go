package telemetry

// The registry's one internal value. state reads everything a registry
// has accumulated — metric values, shard stats, closed phase spans,
// the *open* span stack and the span sequence counter — in canonical
// order, and every reader renders it: Snapshot, SaveState, WriteProm,
// Phases. add folds such a value back in, and both writers go through
// it: LoadState (a checkpoint's saved state into a resumed run's
// registry) and Merge (a sweep point's registry into the run's). A
// resumed run that finishes then snapshots a manifest byte-identical
// (under ZeroDurations) to the cold run's.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// savedState is a registry's accumulated state, and the JSON layout of
// a persisted registry.
type savedState struct {
	Metrics MetricsSnapshot `json:"metrics"`
	Workers int             `json:"workers"`
	Shards  []ShardTiming   `json:"shards"`
	Phases  []SpanRecord    `json:"phases"`
	// Open is the active span stack, outermost first. Open spans have
	// no SpanRecord yet (records are appended at End); each entry here
	// carries the fields needed to rebuild the live Span.
	Open []SpanRecord `json:"open"`
	Seq  int          `json:"seq"`
	// sums holds each histogram's sum by name in fixed-point micros,
	// which add folds in: state reads them from the registry, LoadState
	// from the JSON's float sums (sumMicros).
	sums map[string]int64
}

// sumMicros inverts the rendering state gives a histogram sum,
// float64(m)/1e6: it returns a whole number of micros that renders as
// sum, the very m state read up to 2⁵² micros. ok is false when none
// within 2⁵³, the integers a float64 holds exactly, does.
func sumMicros(sum float64) (m int64, ok bool) {
	f := math.Round(sum * 1e6)
	if !(math.Abs(f) <= 1<<53) {
		return 0, false
	}
	for _, d := range [...]int64{0, -1, 1, -2, 2, -3, 3} {
		if m = int64(f) + d; float64(m)/1e6 == sum {
			return m, true
		}
	}
	return 0, false
}

// state returns the registry's accumulated state: metrics sorted by
// name, shard stats by (phase, shard), closed spans by start sequence,
// open spans outermost first. It takes each lock once.
func (r *Registry) state() *savedState {
	st := savedState{sums: make(map[string]int64)}
	r.mu.Lock()
	st.Metrics.Counters = make([]CounterValue, 0, len(r.counters))
	for name, c := range r.counters {
		st.Metrics.Counters = append(st.Metrics.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	st.Metrics.Gauges = make([]GaugeValue, 0, len(r.gauges))
	for name, g := range r.gauges {
		st.Metrics.Gauges = append(st.Metrics.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	st.Metrics.Histograms = make([]HistogramValue, 0, len(r.hists))
	for name, h := range r.hists {
		st.sums[name] = h.sumMicros.Load()
		hv := HistogramValue{Name: name, Count: h.Count(), Sum: float64(st.sums[name]) / 1e6, Buckets: make([]BucketValue, len(h.buckets))}
		for i := range h.buckets {
			hv.Buckets[i] = BucketValue{LE: "+Inf", Count: h.buckets[i].Load()}
			if i < len(h.bounds) {
				hv.Buckets[i].LE = formatBound(h.bounds[i])
			}
		}
		st.Metrics.Histograms = append(st.Metrics.Histograms, hv)
	}
	r.mu.Unlock()
	slices.SortFunc(st.Metrics.Counters, func(a, b CounterValue) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(st.Metrics.Gauges, func(a, b GaugeValue) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(st.Metrics.Histograms, func(a, b HistogramValue) int { return strings.Compare(a.Name, b.Name) })

	r.parMu.Lock()
	st.Workers = r.workers
	st.Shards = make([]ShardTiming, 0, len(r.shardStats))
	for k, s := range r.shardStats {
		st.Shards = append(st.Shards, ShardTiming{
			Phase: k.phase, Shard: k.shard,
			Items: s.items, Calls: s.calls,
			DurationMS: float64(s.durNS) / 1e6,
		})
	}
	r.parMu.Unlock()
	slices.SortFunc(st.Shards, func(a, b ShardTiming) int {
		return cmp.Or(strings.Compare(a.Phase, b.Phase), cmp.Compare(a.Shard, b.Shard))
	})

	r.spanMu.Lock()
	st.Phases = append([]SpanRecord{}, r.phases...)
	st.Seq = r.seq
	for _, sp := range r.active {
		st.Open = append(st.Open, sp.record())
	}
	r.spanMu.Unlock()
	slices.SortStableFunc(st.Phases, func(a, b SpanRecord) int { return cmp.Compare(a.Seq, b.Seq) })
	return &st
}

// add folds st into the registry and returns st's open spans reopened,
// outermost first. Counters, histogram buckets, counts and sums, and
// shard items, calls and durations add; gauges and a nonzero worker
// count take st's value; closed and open spans are renumbered after
// the registry's own. Counters and histograms are checked before
// anything changes, so a rejected state leaves r as it was: no name
// twice, no negative counter, at least one bucket, parseable bounds,
// and the bucket count of the registry's histogram of that name.
func (r *Registry) add(st *savedState) ([]*Span, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool)
	for _, c := range st.Metrics.Counters {
		if c.Value < 0 || seen[c.Name] {
			return nil, fmt.Errorf("telemetry: state counter %q is negative or repeated", c.Name)
		}
		seen[c.Name] = true
	}
	clear(seen)
	bounds := make([][]float64, len(st.Metrics.Histograms))
	for i, hv := range st.Metrics.Histograms {
		n := len(hv.Buckets)
		if n == 0 || seen[hv.Name] {
			return nil, fmt.Errorf("telemetry: state histogram %q is empty or repeated", hv.Name)
		}
		if h := r.hists[hv.Name]; h != nil && len(h.buckets) != n {
			return nil, fmt.Errorf("telemetry: state histogram %q has %d buckets, the registry's %d", hv.Name, n, len(h.buckets))
		}
		seen[hv.Name] = true
		for _, b := range hv.Buckets[:n-1] {
			v, err := strconv.ParseFloat(b.LE, 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: state histogram %q bound %q: %w", hv.Name, b.LE, err)
			}
			bounds[i] = append(bounds[i], v)
		}
	}
	for _, c := range st.Metrics.Counters {
		r.counter(c.Name).Add(c.Value)
	}
	for _, g := range st.Metrics.Gauges {
		r.gauge(g.Name).Set(g.Value)
	}
	for i, hv := range st.Metrics.Histograms {
		h := r.histogram(hv.Name, bounds[i])
		for j, b := range hv.Buckets {
			h.buckets[j].Add(b.Count)
		}
		h.count.Add(hv.Count)
		h.sumMicros.Add(st.sums[hv.Name])
	}

	r.parMu.Lock()
	if st.Workers != 0 {
		r.workers = st.Workers
	}
	for _, s := range st.Shards {
		r.addShard(shardKey{phase: s.Phase, shard: s.Shard}, s.Items, s.Calls, int64(math.Round(s.DurationMS*1e6)))
	}
	r.parMu.Unlock()

	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	base := r.seq
	for _, p := range st.Phases {
		p.Seq += base
		r.phases = append(r.phases, p)
	}
	r.seq += st.Seq
	var open []*Span
	for _, rec := range st.Open {
		sp := &Span{
			r:     r,
			name:  rec.Path[strings.LastIndexByte(rec.Path, '/')+1:],
			path:  rec.Path,
			depth: rec.Depth,
			seq:   base + rec.Seq,
			start: r.epoch.Add(time.Duration(rec.StartMS * float64(time.Millisecond))),
		}
		r.active = append(r.active, sp)
		open = append(open, sp)
	}
	return open, nil
}

// SaveState serializes the registry's full accumulated state to w.
// Unlike Snapshot, it is lossless: histogram bucket counts, open
// spans, and the span sequence counter all round-trip through
// LoadState.
func (r *Registry) SaveState(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("telemetry: SaveState on nil registry")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.state()); err != nil {
		return fmt.Errorf("telemetry: encode state: %w", err)
	}
	return nil
}

// LoadState restores state saved by SaveState into r (normally a fresh
// registry) and returns the reopened span stack, outermost first, so
// the caller can End them in reverse order as the resumed phases
// complete. Counter/gauge/histogram values, shard timings, closed
// spans, and the span sequence counter all continue exactly where the
// saved run left off. A state it rejects changes nothing.
func (r *Registry) LoadState(rd io.Reader) ([]*Span, error) {
	if r == nil {
		return nil, fmt.Errorf("telemetry: LoadState on nil registry")
	}
	st := savedState{sums: make(map[string]int64)}
	if err := json.NewDecoder(rd).Decode(&st); err != nil {
		return nil, fmt.Errorf("telemetry: decode state: %w", err)
	}
	for _, hv := range st.Metrics.Histograms {
		m, ok := sumMicros(hv.Sum)
		if !ok {
			return nil, fmt.Errorf("telemetry: state histogram %q sum %g is no whole number of micros", hv.Name, hv.Sum)
		}
		st.sums[hv.Name] = m
	}
	return r.add(&st)
}
