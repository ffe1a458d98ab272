package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"strconv"
)

// Version is the subsystem's base version; BuildVersion appends the
// VCS revision when the binary carries one, giving a git-describe
// style identifier without shelling out.
var Version = "v0.2.0"

// BuildVersion returns Version, extended with the embedded VCS
// revision ("v0.2.0+3f2c059a1b2c" / "-dirty") when the Go toolchain
// stamped one into the binary.
func BuildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return Version
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return Version
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	v := Version + "+" + rev
	if dirty {
		v += "-dirty"
	}
	return v
}

// CounterValue is one counter in a manifest, sorted by name.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge in a manifest, sorted by name.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BucketValue is one histogram bucket; LE is the upper bound
// rendered as a string ("+Inf" for the overflow bucket) because JSON
// has no infinity literal.
type BucketValue struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramValue is one histogram in a manifest, sorted by name.
type HistogramValue struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketValue `json:"buckets"`
}

// MetricsSnapshot holds every metric value at snapshot time.
type MetricsSnapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// ShardTiming is one shard of one sharded phase in a manifest, sorted
// by (phase, shard). Items and Calls depend only on the work (they are
// identical for any worker count); DurationMS is wall clock and is
// zeroed under ZeroDurations.
type ShardTiming struct {
	Phase      string  `json:"phase"`
	Shard      int     `json:"shard"`
	Items      int64   `json:"items"`
	Calls      int64   `json:"calls"`
	DurationMS float64 `json:"duration_ms"`
}

// ParallelSnapshot records how the run was sharded. Workers is zeroed
// under ZeroDurations so that a -workers 8 manifest stays byte-
// identical to a -workers 1 manifest (the determinism check).
type ParallelSnapshot struct {
	Workers int           `json:"workers"`
	Shards  []ShardTiming `json:"shards"`
}

// SnapshotActivity summarizes the run's engine-snapshot usage: bytes
// serialized, restores performed, and full convergence runs skipped by
// warm-starting from a restored network. All three mirror counters of
// the same meaning (snapshot_bytes, snapshot_restore_total,
// core_warm_start_skipped_convergence_runs_total), surfaced as a
// dedicated section so manifest consumers need not parse counter
// names.
type SnapshotActivity struct {
	Bytes                  int64 `json:"bytes"`
	Restores               int64 `json:"restores"`
	SkippedConvergenceRuns int64 `json:"skipped_convergence_runs"`
}

// Manifest snapshots one run: what was run (seed, options, version)
// and what happened (phase durations, every metric value). Its JSON
// encoding is deterministic — fixed field order, name-sorted metric
// lists, seq-sorted phases — so two runs with the same seed and build
// produce byte-identical manifests once wall-time fields are zeroed.
type Manifest struct {
	Version  string           `json:"version"`
	Seed     int64            `json:"seed"`
	Options  json.RawMessage  `json:"options"`
	Parallel ParallelSnapshot `json:"parallel"`
	Phases   []SpanRecord     `json:"phases"`
	Metrics  MetricsSnapshot  `json:"metrics"`
	Snapshot SnapshotActivity `json:"snapshot"`
}

// SnapshotOptions parametrizes Snapshot.
type SnapshotOptions struct {
	// Version labels the build; empty uses BuildVersion().
	Version string
	// Seed is the run's topology seed.
	Seed int64
	// Options is an arbitrary JSON-marshalable record of the run's
	// configuration (flags, survey options); nil encodes as null.
	Options any
	// ZeroDurations zeroes every wall-time field (span StartMS /
	// DurationMS), the mode golden tests and manifest diffs use to
	// compare runs byte for byte.
	ZeroDurations bool
}

// Snapshot captures the registry into a Manifest. It is an error to
// snapshot a nil registry.
func (r *Registry) Snapshot(opts SnapshotOptions) (*Manifest, error) {
	if r == nil {
		return nil, fmt.Errorf("telemetry: snapshot of nil registry")
	}
	rawOpts := json.RawMessage("null")
	if opts.Options != nil {
		b, err := json.Marshal(opts.Options)
		if err != nil {
			return nil, fmt.Errorf("telemetry: marshal options: %w", err)
		}
		rawOpts = b
	}
	version := opts.Version
	if version == "" {
		version = BuildVersion()
	}
	st := r.state()
	m := &Manifest{
		Version:  version,
		Seed:     opts.Seed,
		Options:  rawOpts,
		Parallel: ParallelSnapshot{Workers: st.Workers, Shards: st.Shards},
		Phases:   st.Phases,
		Metrics:  st.Metrics,
	}
	if opts.ZeroDurations {
		m.Parallel.Workers = 0
		for i := range m.Phases {
			m.Phases[i].StartMS, m.Phases[i].DurationMS = 0, 0
		}
		for i := range m.Parallel.Shards {
			m.Parallel.Shards[i].DurationMS = 0
		}
	}
	m.Snapshot = SnapshotActivity{
		Bytes:                  m.Counter("snapshot_bytes"),
		Restores:               m.Counter("snapshot_restore_total"),
		SkippedConvergenceRuns: m.Counter("core_warm_start_skipped_convergence_runs_total"),
	}
	return m, nil
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// WriteJSON writes the manifest as indented JSON with a trailing
// newline.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("telemetry: encode manifest: %w", err)
	}
	return nil
}

// ReadManifest parses a manifest written by WriteJSON.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("telemetry: decode manifest: %w", err)
	}
	return &m, nil
}

// Counter returns the named counter's value from the snapshot (0 when
// absent), the accessor manifest-diffing tools use.
func (m *Manifest) Counter(name string) int64 {
	for _, c := range m.Metrics.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value from the snapshot (0, false
// when absent).
func (m *Manifest) Gauge(name string) (float64, bool) {
	for _, g := range m.Metrics.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}
