package core

import "repro/internal/report"

// This file holds ablations of the experiment design: how much of the
// nine-configuration schedule and of the three-targets-per-prefix
// budget the inferences actually need. Both reanalyze saved probing
// rounds, so they answer the questions an operator planning a cheaper
// rerun would ask.

// RoundSubset names a subset of the schedule's round indices.
type RoundSubset struct {
	Name    string
	Indices []int
}

// StandardSubsets returns the ablation ladder: the full schedule, the
// two phases alone, endpoints only, and the single unprepended round.
func StandardSubsets() []RoundSubset {
	return []RoundSubset{
		{"full schedule (9 rounds)", []int{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		{"R&E phase only (4-0..0-0)", []int{0, 1, 2, 3, 4}},
		{"commodity phase only (0-0..0-4)", []int{4, 5, 6, 7, 8}},
		{"endpoints (4-0, 0-0, 0-4)", []int{0, 4, 8}},
		{"single round (0-0)", []int{4}},
	}
}

// RoundsAblationRow scores one subset.
type RoundsAblationRow struct {
	Subset RoundSubset
	// Agreement is the fraction of prefixes whose subset inference
	// matches the full-schedule inference (over prefixes classified
	// under both).
	Agreement float64
	// SwitchRecall is the fraction of full-schedule Switch-to-R&E
	// prefixes the subset still detects as switching — the subset's
	// power to find equal-localpref networks.
	SwitchRecall float64
	// Classified counts prefixes the subset could classify.
	Classified int
}

// AblateRounds reanalyzes an experiment under each subset.
func AblateRounds(res *Result, subsets []RoundSubset) []RoundsAblationRow {
	var rows []RoundsAblationRow
	for _, sub := range subsets {
		row := RoundsAblationRow{Subset: sub}
		agree, both := 0, 0
		switchFound, switchTotal := 0, 0
		for _, pr := range res.PerPrefix {
			if pr.Inference == InfUnresponsive {
				continue
			}
			subSeq := make([]RoundObs, 0, len(sub.Indices))
			for _, i := range sub.Indices {
				if i < len(pr.Seq) {
					subSeq = append(subSeq, pr.Seq[i])
				}
			}
			subInf := Classify(subSeq)
			if subInf == InfUnresponsive {
				continue
			}
			row.Classified++
			both++
			if subInf == pr.Inference {
				agree++
			}
			if pr.Inference == InfSwitchToRE {
				switchTotal++
				if subInf == InfSwitchToRE {
					switchFound++
				}
			}
		}
		if both > 0 {
			row.Agreement = float64(agree) / float64(both)
		}
		if switchTotal > 0 {
			row.SwitchRecall = float64(switchFound) / float64(switchTotal)
		}
		rows = append(rows, row)
	}
	return rows
}

// RoundsAblationTable renders the ladder.
func RoundsAblationTable(rows []RoundsAblationRow) *report.Table {
	t := &report.Table{
		Title:   "Ablation: schedule subsets vs full nine-round classification",
		Headers: []string{"Subset", "Classified", "Agreement", "Switch recall"},
	}
	for _, r := range rows {
		t.AddRow(r.Subset.Name, itoa(r.Classified),
			report.Pct(int(r.Agreement*1000), 1000),
			report.Pct(int(r.SwitchRecall*1000), 1000))
	}
	return t
}

// TargetsAblationRow scores classification with a reduced per-prefix
// target budget.
type TargetsAblationRow struct {
	MaxTargets int
	// Agreement with the full-budget classification.
	Agreement float64
	// MixedDetected counts prefixes classified Mixed — detectable only
	// with multiple targets.
	MixedDetected int
	// LossExcluded counts prefixes excluded for packet loss (fewer
	// targets mean less redundancy).
	LossExcluded int
}

// AblateTargets reclassifies the experiment as if only the first k
// responsive targets per prefix had been probed, for each budget
// k > 0. It reads the same Observe reduction the classifier does,
// once per budget.
func AblateTargets(res *Result, budgets []int) []TargetsAblationRow {
	var rows []TargetsAblationRow
	for _, k := range budgets {
		row := TargetsAblationRow{MaxTargets: k}
		agree, both := 0, 0
		// obs and res.PerPrefix are both in canonical prefix order:
		// walk them side by side.
		obs, j, found := Observe(res.Rounds, k), 0, false
		for _, pr := range res.PerPrefix {
			var seq []RoundObs
			if j, found = seek(obs, j, pr.Prefix); found {
				seq = obs[j].Seq
			}
			inf := Classify(seq)
			switch inf {
			case InfUnresponsive:
				row.LossExcluded++
			case InfMixed:
				row.MixedDetected++
			}
			if pr.Inference != InfUnresponsive && inf != InfUnresponsive {
				both++
				if inf == pr.Inference {
					agree++
				}
			}
		}
		if both > 0 {
			row.Agreement = float64(agree) / float64(both)
		}
		rows = append(rows, row)
	}
	return rows
}

// TargetsAblationTable renders the budget ladder.
func TargetsAblationTable(rows []TargetsAblationRow) *report.Table {
	t := &report.Table{
		Title:   "Ablation: targets per prefix (paper uses three, §3.2)",
		Headers: []string{"Targets", "Agreement", "Mixed detected", "Loss-excluded"},
	}
	for _, r := range rows {
		t.AddRow(itoa(r.MaxTargets),
			report.Pct(int(r.Agreement*1000), 1000),
			itoa(r.MixedDetected), itoa(r.LossExcluded))
	}
	return t
}
