package core

import (
	"bytes"
	"testing"

	"repro/internal/telemetry"
)

// TestRelationshipAccuracy sanity-checks the asrel integration at test
// scale.
func TestRelationshipAccuracy(t *testing.T) {
	s := NewSurvey(SmallSurveyOptions())
	views := ComputeOriginViews(s.Eco)
	acc, edges, paths := relationshipAccuracy(s.Eco, views)
	if edges < 100 || paths < 1000 {
		t.Fatalf("too little data: %d edges, %d paths", edges, paths)
	}
	if acc < 0.85 {
		t.Errorf("relationship accuracy = %.3f", acc)
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
