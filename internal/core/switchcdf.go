package core

import (
	"repro/internal/asn"
	"repro/internal/netutil"
	"repro/internal/report"
	"repro/internal/topo"
)

// SwitchCDF is Figure 8: for ASes whose prefixes switched from
// commodity to R&E in both experiments, the cumulative distribution of
// the first configuration at which each AS switched, split into the
// Participant (U.S. domestic) and Peer-NREN (international) classes.
type SwitchCDF struct {
	Name string
	// Configs are the x-axis labels.
	Configs []string
	// Participant / PeerNREN are cumulative fractions per config.
	Participant []float64
	PeerNREN    []float64
	// NParticipant / NPeerNREN are the AS population sizes.
	NParticipant int
	NPeerNREN    int
}

// SwitchPrefixes returns the prefixes classified Switch-to-R&E in both
// experiments (Appendix B selects these for comparability), in
// canonical order.
func SwitchPrefixes(a, b *Result) []netutil.Prefix {
	var out []netutil.Prefix
	for _, pr := range a.PerPrefix {
		if pr.Inference != InfSwitchToRE {
			continue
		}
		if q := b.Find(pr.Prefix); q != nil && q.Inference == InfSwitchToRE {
			out = append(out, pr.Prefix)
		}
	}
	return out
}

// BuildSwitchCDF computes Figure 8 for one experiment, over the
// prefixes switching in both.
func BuildSwitchCDF(eco *topo.Ecosystem, res *Result, prefixes []netutil.Prefix) *SwitchCDF {
	// Per AS and class: the earliest config index at which any of its
	// prefixes switched (Appendix B counts unison switches once).
	type key struct {
		as    asn.AS
		class topo.Class
	}
	first := make(map[key]int)
	for _, p := range prefixes {
		pr := res.Find(p)
		if pr == nil {
			continue
		}
		idx := SwitchConfig(pr.Seq)
		if idx < 0 {
			continue
		}
		pi := eco.PrefixInfoFor(p)
		if pi == nil {
			continue
		}
		k := key{pi.Origin, pi.NeighborClass}
		if cur, ok := first[k]; !ok || idx < cur {
			first[k] = idx
		}
	}

	cdf := &SwitchCDF{Name: res.Name}
	n := len(res.Configs)
	for _, c := range res.Configs {
		cdf.Configs = append(cdf.Configs, c.Label())
	}
	partCounts := make([]int, n)
	nrenCounts := make([]int, n)
	for k, idx := range first {
		if idx >= n {
			continue
		}
		switch k.class {
		case topo.ClassParticipant:
			partCounts[idx]++
			cdf.NParticipant++
		case topo.ClassPeerNREN:
			nrenCounts[idx]++
			cdf.NPeerNREN++
		}
	}
	cdf.Participant = cumulate(partCounts, cdf.NParticipant)
	cdf.PeerNREN = cumulate(nrenCounts, cdf.NPeerNREN)
	return cdf
}

func cumulate(counts []int, total int) []float64 {
	out := make([]float64, len(counts))
	run := 0
	for i, c := range counts {
		run += c
		if total > 0 {
			out[i] = float64(run) / float64(total)
		}
	}
	return out
}

// Series renders the two CDF lines.
func (c *SwitchCDF) Series() (participant, peerNREN *report.Series) {
	participant = &report.Series{
		Name:   "Figure 8 Participant (N=" + itoa(c.NParticipant) + ") — " + c.Name,
		Labels: c.Configs, Values: c.Participant,
	}
	peerNREN = &report.Series{
		Name:   "Figure 8 Peer-NREN (N=" + itoa(c.NPeerNREN) + ") — " + c.Name,
		Labels: c.Configs, Values: c.PeerNREN,
	}
	return participant, peerNREN
}

// MeanSwitchIndex returns the mean config index at which the class
// switched, for the Appendix B "one prepend adjustment later" check.
func (c *SwitchCDF) MeanSwitchIndex() (participant, peerNREN float64) {
	mean := func(cum []float64, n int) float64 {
		if n == 0 {
			return 0
		}
		// Recover the pmf from the cdf.
		total := 0.0
		prev := 0.0
		for i, v := range cum {
			total += (v - prev) * float64(i)
			prev = v
		}
		return total
	}
	return mean(c.Participant, c.NParticipant), mean(c.PeerNREN, c.NPeerNREN)
}
