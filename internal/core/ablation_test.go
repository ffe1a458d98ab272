package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestAblateRounds(t *testing.T) {
	s := getSurvey(t)
	rows := AblateRounds(s.Internet2, StandardSubsets())
	if len(rows) != len(StandardSubsets()) {
		t.Fatalf("rows = %d", len(rows))
	}
	full := rows[0]
	if full.Agreement != 1.0 || full.SwitchRecall != 1.0 {
		t.Errorf("full schedule must agree with itself: %+v", full)
	}
	index := func(rows []RoundsAblationRow) map[string]RoundsAblationRow {
		m := map[string]RoundsAblationRow{}
		for _, r := range rows {
			m[r.Subset.Name] = r
		}
		return m
	}
	// The ablation's finding: which half-schedule catches the
	// switchers depends on the experiment. In the Internet2 experiment
	// the R&E origin's paths are short, so equal-localpref networks
	// switch while R&E prepends are being removed; in the SURF
	// experiment the R&E paths are long, so they switch only once
	// commodity prepends grow. Neither phase alone works for both —
	// the full schedule is necessary.
	june := index(rows)
	if june["R&E phase only (4-0..0-0)"].SwitchRecall <= june["commodity phase only (0-0..0-4)"].SwitchRecall {
		t.Errorf("Internet2: R&E-phase recall %.2f should exceed commodity-phase %.2f",
			june["R&E phase only (4-0..0-0)"].SwitchRecall,
			june["commodity phase only (0-0..0-4)"].SwitchRecall)
	}
	surf := index(AblateRounds(s.SURF, StandardSubsets()))
	if surf["commodity phase only (0-0..0-4)"].SwitchRecall <= surf["R&E phase only (4-0..0-0)"].SwitchRecall {
		t.Errorf("SURF: commodity-phase recall %.2f should exceed R&E-phase %.2f",
			surf["commodity phase only (0-0..0-4)"].SwitchRecall,
			surf["R&E phase only (4-0..0-0)"].SwitchRecall)
	}
	// A single round can never observe a switch.
	single := june["single round (0-0)"]
	if single.SwitchRecall != 0 {
		t.Errorf("single round detected switches: %.2f", single.SwitchRecall)
	}
	// Every subset's agreement falls between 0.5 and 1.
	for _, r := range rows {
		if r.Agreement < 0.5 || r.Agreement > 1 {
			t.Errorf("subset %q agreement %.2f out of range", r.Subset.Name, r.Agreement)
		}
		if r.Classified == 0 {
			t.Errorf("subset %q classified nothing", r.Subset.Name)
		}
	}
}

func TestAblateTargets(t *testing.T) {
	s := getSurvey(t)
	rows := AblateTargets(s.Internet2, []int{1, 2, 3})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	one, three := rows[0], rows[2]
	// With one target per prefix, intra-prefix diversity is invisible.
	if one.MixedDetected != 0 {
		t.Errorf("1-target run detected %d mixed prefixes", one.MixedDetected)
	}
	if three.MixedDetected == 0 {
		t.Error("3-target run should detect mixed prefixes")
	}
	// Fewer targets -> no fewer loss exclusions.
	if one.LossExcluded < three.LossExcluded {
		t.Errorf("loss exclusions should not shrink with fewer targets: 1->%d, 3->%d",
			one.LossExcluded, three.LossExcluded)
	}
	// The 3-target rerun reproduces the canonical classification.
	if three.Agreement < 0.999 {
		t.Errorf("3-target agreement = %.3f, want 1.0", three.Agreement)
	}
	if one.Agreement < 0.8 {
		t.Errorf("1-target agreement = %.3f, implausibly low", one.Agreement)
	}
	// The table itself, for the small survey at seed 1: any change to
	// how records reduce to observations shows up here first.
	want := []TargetsAblationRow{
		{MaxTargets: 1, Agreement: 558.0 / 571, MixedDetected: 0, LossExcluded: 8},
		{MaxTargets: 2, Agreement: 562.0 / 575, MixedDetected: 0, LossExcluded: 4},
		{MaxTargets: 3, Agreement: 1, MixedDetected: 13, LossExcluded: 4},
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], w)
		}
	}
}

func TestAblationTablesRender(t *testing.T) {
	s := getSurvey(t)
	rt := RoundsAblationTable(AblateRounds(s.Internet2, StandardSubsets()))
	if len(rt.Rows) != len(StandardSubsets()) {
		t.Error("rounds table row count wrong")
	}
	tt := TargetsAblationTable(AblateTargets(s.Internet2, []int{1, 3}))
	if len(tt.Rows) != 2 {
		t.Error("targets table row count wrong")
	}
}

func TestAblateRoundGap(t *testing.T) {
	// §3.3's design choice, demonstrated: with ~9% of members damping
	// flapping routes, a 10-minute schedule fabricates oscillation and
	// switch-to-commodity artefacts that the one-hour schedule avoids.
	for _, tt := range []struct {
		name     string
		gaps     []int
		baseline int // index of the row every row is compared against
	}{
		{name: "no gaps", gaps: nil},
		{name: "largest gap stands in for a missing hour", gaps: []int{1800, 600}, baseline: 0},
		{name: "standard ladder", gaps: []int{600, 1800, 3600}, baseline: 2},
	} {
		rows := AblateRoundGap(tt.gaps, SmallSurveyOptions())
		if len(rows) != len(tt.gaps) {
			t.Fatalf("%s: %d rows for %d gaps", tt.name, len(rows), len(tt.gaps))
		}
		for i, row := range rows {
			if row.GapSeconds != tt.gaps[i] {
				t.Fatalf("%s: row order wrong: %+v", tt.name, rows)
			}
			if i == tt.baseline && row.Agreement != 1.0 {
				t.Errorf("%s: baseline self-agreement = %.3f", tt.name, row.Agreement)
			}
			if row.GapSeconds == 3600 && row.Artefacts != 0 {
				t.Errorf("%s: one-hour schedule produced %d artefacts", tt.name, row.Artefacts)
			}
			if row.GapSeconds == 600 && row.Artefacts == 0 {
				t.Errorf("%s: 10-minute schedule should trip route-flap damping", tt.name)
			}
			if row.GapSeconds == 600 && row.Agreement >= 1.0 {
				t.Errorf("%s: 10-minute schedule should disagree with the baseline somewhere", tt.name)
			}
		}
		if len(rows) > 0 && !strings.Contains(GapAblationTable(rows).String(), "00:10:00") {
			t.Errorf("%s: table rendering wrong", tt.name)
		}
	}
}

// TestAblateRoundGapDeterministic pins the standard ladder's rows at
// -small, seed 1, and holds them equal whether the gaps' worlds run
// one at a time or side by side.
func TestAblateRoundGapDeterministic(t *testing.T) {
	want := []GapAblationRow{
		{GapSeconds: 600, Unresponsive: 0, Artefacts: 5, Agreement: 563.0 / 579},
		{GapSeconds: 1800, Unresponsive: 0, Artefacts: 0, Agreement: 1},
		{GapSeconds: 3600, Unresponsive: 0, Artefacts: 0, Agreement: 1},
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rows := AblateRoundGap([]int{600, 1800, 3600}, SmallSurveyOptions())
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("GOMAXPROCS %d: rows %+v, want %+v", procs, rows, want)
		}
	}
}

func TestMultiSeedRobustness(t *testing.T) {
	// The headline fractions must be stable across worlds: the
	// reproduction's results come from the policy mix, not from one
	// lucky seed.
	m := RunMultiSeed(SmallSurveyOptions(), []int64{1, 2, 3})
	if len(m.Runs) != 3 {
		t.Fatalf("runs = %d", len(m.Runs))
	}
	meanRE, stdRE := m.MeanStd(func(r SeedRun) float64 { return r.AlwaysRE })
	if meanRE < 72 || meanRE > 92 {
		t.Errorf("mean Always R&E = %.1f%%, want paper-like ~81%%", meanRE)
	}
	if stdRE > 6 {
		t.Errorf("Always R&E std = %.1f, too seed-sensitive", stdRE)
	}
	meanAgree, _ := m.MeanStd(func(r SeedRun) float64 { return r.Agreement })
	if meanAgree < 92 {
		t.Errorf("mean Table 2 agreement = %.1f%%, want >92%%", meanAgree)
	}
	for _, r := range m.Runs {
		if r.AlwaysRE < r.AlwaysComm || r.AlwaysRE < r.SwitchRE {
			t.Errorf("seed %d: Always R&E does not dominate (%+v)", r.Seed, r)
		}
	}
	if len(m.Table().Rows) != 4 {
		t.Error("table should have 3 seed rows + mean")
	}
}
