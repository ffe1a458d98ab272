package core

import (
	"bytes"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/topo"
)

// TestRelationshipAccuracy pins the asrel integration's figures at
// -small and at the paper's grammar with its populations divided by
// four to what inference over one concatenated slice of every view's
// paths gave.
func TestRelationshipAccuracy(t *testing.T) {
	for _, tc := range []struct {
		name          string
		cfg           topo.GenConfig
		acc           float64
		edges, nPaths int
	}{
		{"small", topo.SmallConfig(), 0.9425465838509317, 644, 24477},
		{"paper÷4", paperQuarter(), 0.9719407638347622, 1283, 109294},
	} {
		eco := topo.Build(tc.cfg)
		acc, edges, paths := RelationshipAccuracy(eco, ComputeOriginViews(eco))
		if acc != tc.acc || edges != tc.edges || paths != tc.nPaths {
			t.Errorf("%s: accuracy %v over %d edges and %d paths, want %v, %d, %d",
				tc.name, acc, edges, paths, tc.acc, tc.edges, tc.nPaths)
		}
	}
}

// TestAnalyzeTelemetryInvisible: instrumenting the analysis pass
// changes no byte of its report, and records the pass as the
// "analysis" span with the origin-view solve nested inside it.
func TestAnalyzeTelemetryInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced pipeline twice")
	}
	render := func(reg *telemetry.Registry) []byte {
		s := NewPipeline(WithSmall(), WithSeed(2), WithMetrics(reg)).NewSurvey()
		s.RunBoth()
		a, err := Analyze(s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		a.WriteText(&buf)
		return buf.Bytes()
	}
	reg := telemetry.New()
	bare, live := render(nil), render(reg)
	if len(bare) == 0 || !bytes.Contains(bare, []byte("Table 4")) {
		t.Fatalf("implausible report:\n%s", bare)
	}
	if !bytes.Equal(bare, live) {
		t.Fatal("the report differs between a nil and a live registry")
	}

	m, err := reg.Snapshot(telemetry.SnapshotOptions{ZeroDurations: true})
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for _, ph := range m.Phases {
		spans[ph.Path] = true
	}
	for _, want := range []string{"analysis", "analysis/origin-views"} {
		if !spans[want] {
			t.Errorf("no %q span among %v", want, spans)
		}
	}
}
