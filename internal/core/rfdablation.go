package core

import (
	"context"
	"slices"

	"repro/internal/bgp"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// This file ablates the schedule's pacing. §3.3 waited one hour
// between announcement changes because route-flap damping penalizes
// flapping prefixes (~9% of ASes enable it, half-life ~15 minutes).
// Re-running the experiment with tighter gaps on a world where that 9%
// damps shows the damage a hasty schedule would have done.

// GapAblationRow is one pacing variant's outcome.
type GapAblationRow struct {
	// GapSeconds is the wait between configuration changes.
	GapSeconds int
	// Unresponsive counts prefixes excluded for a silent round.
	Unresponsive int
	// Artefacts counts Oscillating + Switch-to-commodity inferences —
	// categories damping fabricates under a hasty schedule.
	Artefacts int
	// Agreement is the per-prefix inference agreement with the
	// one-hour baseline (over prefixes classified in both).
	Agreement float64
}

// AblateRoundGap reruns the Internet2-style experiment with different
// waits between configuration changes and compares each against the
// one-hour run. Loss injection is disabled so the pacing effect is
// isolated; gaps should include 3600 (the baseline). Every gap runs on
// a world built for it, as one point of sweepPoints: the gaps run in
// parallel, and the rows are the same for any GOMAXPROCS.
func AblateRoundGap(gaps []int, opts SurveyOptions) []GapAblationRow {
	if len(gaps) == 0 {
		return nil
	}
	// Isolate the pacing effect: no dormancy or random loss.
	opts.World.FracDormantPrefix = 0
	opts.World.ProbeLossProb = 0

	// The background context never cancels, so sweepPoints cannot fail.
	results, _ := sweepPoints(context.Background(), len(gaps), 0, nil, "gapablation",
		func(i int, reg *telemetry.Registry) *Result {
			_, x, _ := newPointWorld(opts, reg)
			x.Cfg.RoundGap = bgp.Time(gaps[i])
			x.Cfg.DormancySeed = 0
			return x.Run()
		})
	bi := slices.Index(gaps, 3600)
	if bi < 0 {
		// Fall back to the largest gap as baseline.
		bi = slices.Index(gaps, slices.Max(gaps))
	}
	base := results[bi]

	var out []GapAblationRow
	for i, gap := range gaps {
		res := results[i]
		row := GapAblationRow{GapSeconds: gap}
		agree, both := 0, 0
		for _, pr := range res.PerPrefix {
			switch pr.Inference {
			case InfUnresponsive:
				row.Unresponsive++
			case InfOscillating, InfSwitchToCommodity:
				row.Artefacts++
			}
			bp := base.Find(pr.Prefix)
			if bp == nil || bp.Inference == InfUnresponsive || pr.Inference == InfUnresponsive {
				continue
			}
			both++
			if bp.Inference == pr.Inference {
				agree++
			}
		}
		if both > 0 {
			row.Agreement = float64(agree) / float64(both)
		}
		out = append(out, row)
	}
	return out
}

// GapAblationTable renders the pacing ladder.
func GapAblationTable(rows []GapAblationRow) *report.Table {
	t := &report.Table{
		Title:   "Ablation: wait between configuration changes (RFD hygiene, §3.3)",
		Headers: []string{"Gap", "Loss-excluded", "Artefact categories", "Agreement w/ 1h"},
	}
	for _, r := range rows {
		t.AddRow(bgp.Time(r.GapSeconds).Clock(), itoa(r.Unresponsive), itoa(r.Artefacts),
			report.Pct(int(r.Agreement*1000), 1000))
	}
	return t
}
