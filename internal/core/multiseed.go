package core

import (
	"fmt"
	"math"

	"repro/internal/report"
)

// This file checks that the reproduction's headline results are
// properties of the modelled policy structure, not artifacts of one
// random world: the survey is repeated across generator seeds and the
// Table 1 fractions summarized.

// SeedRun is one seed's headline fractions (percent of classified
// prefixes, Internet2 experiment).
type SeedRun struct {
	Seed       int64
	AlwaysRE   float64
	AlwaysComm float64
	SwitchRE   float64
	Mixed      float64
	// Agreement is the cross-experiment agreement (Table 2).
	Agreement float64
}

// MultiSeedResult aggregates runs.
type MultiSeedResult struct {
	Runs []SeedRun
}

// RunMultiSeed executes the full two-experiment survey for each seed,
// every seed on a world built for it.
func RunMultiSeed(opts SurveyOptions, seeds []int64) *MultiSeedResult {
	out := &MultiSeedResult{}
	for _, seed := range seeds {
		o := opts
		o.Topology.Seed = seed
		s := NewSurvey(o)
		s.RunBoth()
		sum := Summarize(s.Eco, s.Internet2)
		cmp := Compare(s.Eco, s.SURF, s.Internet2)
		run := SeedRun{Seed: seed}
		if sum.TotalPrefixes > 0 {
			t := float64(sum.TotalPrefixes)
			run.AlwaysRE = 100 * float64(sum.PrefixCount[InfAlwaysRE]) / t
			run.AlwaysComm = 100 * float64(sum.PrefixCount[InfAlwaysCommodity]) / t
			run.SwitchRE = 100 * float64(sum.PrefixCount[InfSwitchToRE]) / t
			run.Mixed = 100 * float64(sum.PrefixCount[InfMixed]) / t
		}
		if cmp.Comparable > 0 {
			run.Agreement = 100 * float64(cmp.Same) / float64(cmp.Comparable)
		}
		out.Runs = append(out.Runs, run)
	}
	return out
}

// MeanStd returns the mean and standard deviation of a metric across
// runs, selected by the accessor.
func (m *MultiSeedResult) MeanStd(metric func(SeedRun) float64) (mean, std float64) {
	if len(m.Runs) == 0 {
		return 0, 0
	}
	for _, r := range m.Runs {
		mean += metric(r)
	}
	mean /= float64(len(m.Runs))
	for _, r := range m.Runs {
		d := metric(r) - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(m.Runs)))
	return mean, std
}

// Table renders per-seed rows plus the mean ± std line.
func (m *MultiSeedResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Seed robustness: Table 1 fractions across generator seeds (Internet2 experiment)",
		Headers: []string{"Seed", "Always R&E", "Always comm", "Switch", "Mixed", "Tbl2 agreement"},
	}
	f := func(v float64) string { return fmt.Sprintf("%.1f%%", v) }
	for _, r := range m.Runs {
		t.AddRow(fmt.Sprint(r.Seed), f(r.AlwaysRE), f(r.AlwaysComm), f(r.SwitchRE), f(r.Mixed), f(r.Agreement))
	}
	ms := func(metric func(SeedRun) float64) string {
		mean, std := m.MeanStd(metric)
		return fmt.Sprintf("%.1f±%.1f", mean, std)
	}
	t.AddRow("mean±sd",
		ms(func(r SeedRun) float64 { return r.AlwaysRE }),
		ms(func(r SeedRun) float64 { return r.AlwaysComm }),
		ms(func(r SeedRun) float64 { return r.SwitchRE }),
		ms(func(r SeedRun) float64 { return r.Mixed }),
		ms(func(r SeedRun) float64 { return r.Agreement }))
	return t
}
