package core

import (
	"sort"
	"strconv"

	"repro/internal/asn"
	"repro/internal/report"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// SurveySummary is Table 1: prefix and AS counts per inference
// category for one experiment.
type SurveySummary struct {
	Name string
	// PrefixCount / ASCount per inference (InfUnresponsive excluded
	// from the table body, as in the paper).
	PrefixCount map[Inference]int
	ASSet       map[Inference]map[asn.AS]bool
	// TotalPrefixes / TotalASes are the characterized totals (the
	// table's "Total" row).
	TotalPrefixes int
	TotalASes     int
	// Unresponsive counts prefixes excluded for loss.
	Unresponsive int
	// InsufficientData counts prefixes excluded for failing the
	// evidence quorum (always 0 under the strict paper rule).
	InsufficientData int
	// MultiCategoryASes counts origin ASes appearing in more than one
	// category — why Table 1's AS percentages sum past 100%.
	MultiCategoryASes int
}

// tableOrder is the category order of Table 1.
var tableOrder = []Inference{
	InfAlwaysRE, InfAlwaysCommodity, InfSwitchToRE,
	InfSwitchToCommodity, InfMixed, InfOscillating,
}

// Summarize builds the Table 1 summary for one experiment result.
func Summarize(eco *topo.Ecosystem, res *Result) *SurveySummary {
	s := &SurveySummary{
		Name:        res.Name,
		PrefixCount: make(map[Inference]int),
		ASSet:       make(map[Inference]map[asn.AS]bool),
	}
	allAS := make(map[asn.AS]bool)
	for _, pr := range res.PerPrefix {
		if pr.Inference == InfUnresponsive {
			s.Unresponsive++
			continue
		}
		if pr.Inference == InfInsufficientData {
			s.InsufficientData++
			continue
		}
		pi := eco.PrefixInfoFor(pr.Prefix)
		if pi == nil {
			continue
		}
		s.PrefixCount[pr.Inference]++
		s.TotalPrefixes++
		set := s.ASSet[pr.Inference]
		if set == nil {
			set = make(map[asn.AS]bool)
			s.ASSet[pr.Inference] = set
		}
		set[pi.Origin] = true
		allAS[pi.Origin] = true
	}
	s.TotalASes = len(allAS)
	for as := range allAS {
		cats := 0
		for _, set := range s.ASSet {
			if set[as] {
				cats++
			}
		}
		if cats > 1 {
			s.MultiCategoryASes++
		}
	}
	return s
}

// ASCount returns the number of distinct origin ASes in a category.
func (s *SurveySummary) ASCount(i Inference) int { return len(s.ASSet[i]) }

// Table renders the Table 1 layout.
func (s *SurveySummary) Table() *report.Table {
	t := &report.Table{
		Title:   "Table 1: results for tested prefixes — " + s.Name,
		Headers: []string{"Inference", "Prefixes", "", "ASes", ""},
	}
	for _, inf := range tableOrder {
		t.AddRow(inf.String(),
			itoa(s.PrefixCount[inf]), report.Pct(s.PrefixCount[inf], s.TotalPrefixes),
			itoa(s.ASCount(inf)), report.Pct(s.ASCount(inf), s.TotalASes))
	}
	t.AddRow("Total:", itoa(s.TotalPrefixes), "", itoa(s.TotalASes), "")
	return t
}

func itoa(n int) string { return strconv.Itoa(n) }

// MixedRatio computes the R&E:commodity response ratio inside mixed
// prefixes across all rounds (§4 reports ~2:1). A round's records and
// res.PerPrefix are both in canonical prefix order, so it walks them
// side by side, the records through a cursor.
func MixedRatio(res *Result) (re, commodity int) {
	for _, rd := range res.Rounds {
		j, found := 0, false
		for c := rd.Cursor(); c.Next(); {
			rec := c.Record()
			j, found = seek(res.PerPrefix, j, rec.Prefix)
			if !found || !rec.Responded || res.PerPrefix[j].Inference != InfMixed {
				continue
			}
			switch rec.VLAN {
			case simnet.VLANRE:
				re++
			case simnet.VLANCommodity:
				commodity++
			}
		}
	}
	return re, commodity
}

// InferencesByAS groups per-prefix inferences by origin AS and
// returns, for each AS, its most frequent inference (ties → no entry,
// matching §4.1.1's exclusion of the AS with no most frequent
// inference).
func InferencesByAS(eco *topo.Ecosystem, res *Result) map[asn.AS]Inference {
	counts := make(map[asn.AS]map[Inference]int)
	for _, pr := range res.PerPrefix {
		if pr.Inference == InfUnresponsive || pr.Inference == InfInsufficientData {
			continue
		}
		pi := eco.PrefixInfoFor(pr.Prefix)
		if pi == nil {
			continue
		}
		m := counts[pi.Origin]
		if m == nil {
			m = make(map[Inference]int)
			counts[pi.Origin] = m
		}
		m[pr.Inference]++
	}
	out := make(map[asn.AS]Inference, len(counts))
	for as, m := range counts {
		// Deterministic scan over categories.
		type kv struct {
			inf Inference
			n   int
		}
		var ranked []kv
		for inf, n := range m {
			ranked = append(ranked, kv{inf, n})
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].n != ranked[j].n {
				return ranked[i].n > ranked[j].n
			}
			return ranked[i].inf < ranked[j].inf
		})
		if len(ranked) == 1 || ranked[0].n > ranked[1].n {
			out[as] = ranked[0].inf
		}
	}
	return out
}
