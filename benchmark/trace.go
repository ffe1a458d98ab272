package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Times are seconds since the tracer's epoch.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index into the span list, -1 for a root
	Op     string  `json:"op"`     // spans of one operation share this id
}

// tracer keeps spans in memory; they are written out when the run
// ends. A nil tracer is the untraced (timed) mode: start returns a
// no-op, so the workload code is the same in both modes.
type tracer struct {
	epoch time.Time
	op    string
	spans []span
	open  []int
}

func newTracer(op string) *tracer {
	return &tracer{epoch: time.Now(), op: op}
}

// start opens a span nested under the innermost open one and returns
// the function that closes it.
func (t *tracer) start(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch).Seconds(), Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.epoch).Seconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// phase is a completed span reported by the program's own telemetry
// registry: a slash-joined path and wall times relative to that
// registry's epoch.
type phase struct {
	Path     string
	StartS   float64
	Duration float64
}

// phaseLayer maps the last element of a registry phase path onto the
// layer (package) whose time it is. Unknown phases map to "" and stay
// in their parent's self time.
func phaseLayer(path string) string {
	last := path[strings.LastIndexByte(path, '/')+1:]
	switch {
	case last == "round":
		return "probe.rounds"
	case last == "classify":
		return "core.classify"
	case strings.HasPrefix(last, "config:"):
		return "bgp.delta"
	case strings.HasPrefix(last, "experiment:"):
		return "core.experiment"
	}
	return ""
}

// adopt turns registry phases recorded while the innermost open span
// ran into child spans of it, nested by path. regEpoch is the
// registry's epoch on the tracer's clock. Only a registry written by
// one goroutine has a single timeline; merged sub-registries of a
// parallel sweep do not, and are summed by phaseSeconds instead.
func (t *tracer) adopt(regEpoch time.Time, phases []phase) {
	if t == nil || len(t.open) == 0 {
		return
	}
	root := t.open[len(t.open)-1]
	off := regEpoch.Sub(t.epoch).Seconds()
	byPath := map[string]int{}
	sorted := append([]phase(nil), phases...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].StartS < sorted[j].StartS })
	for _, p := range sorted {
		name := phaseLayer(p.Path)
		if name == "" {
			continue
		}
		parent := root
		if i := strings.LastIndexByte(p.Path, '/'); i >= 0 {
			if id, ok := byPath[p.Path[:i]]; ok {
				parent = id
			}
		}
		byPath[p.Path] = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Start: off + p.StartS, End: off + p.StartS + p.Duration, Parent: parent, Op: t.op})
	}
}

// selfSeconds returns, per span name, the summed self time: each
// span's duration minus the part of its interval that its direct
// children cover (overlapping children are counted once).
func selfSeconds(spans []span) map[string]float64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(spans, children[i], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, ids []int, lo, hi float64) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, id := range ids {
		a, b := spans[id].Start, spans[id].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
