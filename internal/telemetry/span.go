package telemetry

import "time"

// Span is one timed phase of a run. Spans nest: a span started while
// another is active becomes its child, and its path is the
// slash-joined chain of names (experiment → prepend-config → round).
// A nil Span (from a nil registry) is a valid no-op.
type Span struct {
	r     *Registry
	name  string
	path  string
	depth int
	seq   int
	start time.Time
}

// SpanRecord is a completed span as it appears in the manifest.
// Seq is the start order, so sorting by Seq replays the phase tree
// depth-first; StartMS and DurationMS are wall-clock fields, zeroed
// when a manifest is snapshotted with ZeroDurations (the byte-stable
// comparison mode golden tests use).
type SpanRecord struct {
	Seq        int     `json:"seq"`
	Path       string  `json:"path"`
	Depth      int     `json:"depth"`
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
}

// StartSpan opens a phase span nested under the innermost active
// span. It returns nil on a nil registry.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	sp := &Span{r: r, name: name, path: name, seq: r.seq, start: r.now()}
	r.seq++
	if n := len(r.active); n > 0 {
		parent := r.active[n-1]
		sp.path = parent.path + "/" + name
		sp.depth = parent.depth + 1
	}
	r.active = append(r.active, sp)
	return sp
}

// End closes the span and records its duration. Ending a span also
// ends any still-active descendants (mis-nested ends collapse rather
// than corrupt the stack). End on a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.r
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	at := r.now()
	for i := len(r.active) - 1; i >= 0; i-- {
		if r.active[i] != s {
			continue
		}
		// Record s and any unclosed children, oldest first, so the
		// phase list stays ordered by start sequence.
		for j := i; j < len(r.active); j++ {
			rec := r.active[j].record()
			rec.DurationMS = at.Sub(r.active[j].start).Seconds() * 1e3
			r.phases = append(r.phases, rec)
		}
		r.active = r.active[:i]
		return
	}
	// s was already closed (double End): ignore.
}

// record is the span's SpanRecord but for its duration, which only
// End knows; r.spanMu is held.
func (s *Span) record() SpanRecord {
	return SpanRecord{Seq: s.seq, Path: s.path, Depth: s.depth, StartMS: s.start.Sub(s.r.epoch).Seconds() * 1e3}
}

// Phases returns the completed spans sorted by start sequence.
func (r *Registry) Phases() []SpanRecord {
	if r == nil {
		return nil
	}
	return r.state().Phases
}
