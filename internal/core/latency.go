package core

import (
	"sort"

	"repro/internal/simnet"
)

// This file quantifies the paper's motivating performance concern
// (§1): "traffic between collaborating institutions may unnecessarily
// traverse commodity networks, and may incur higher latency". The
// simulated RTTs are synthetic (per-AS-hop serialization), but the
// hop-count comparison between R&E and commodity return paths is a
// real property of the topology.

// LatencyStats summarizes response RTTs per return-path type for one
// experiment round.
type LatencyStats struct {
	Config string
	// MedianRE / MedianCommodity are median response RTTs (ms).
	MedianRE        float64
	MedianCommodity float64
	NRE             int
	NCommodity      int
}

// DetourPenalty returns the median commodity-vs-R&E RTT difference.
func (ls LatencyStats) DetourPenalty() float64 {
	return ls.MedianCommodity - ls.MedianRE
}

// AnalyzeLatency computes per-round RTT medians by return VLAN.
func AnalyzeLatency(res *Result) []LatencyStats {
	var out []LatencyStats
	for _, rd := range res.Rounds {
		var re, comm []float64
		for c := rd.Cursor(); c.Next(); {
			rec := c.Record()
			if !rec.Responded {
				continue
			}
			switch rec.VLAN {
			case simnet.VLANRE:
				re = append(re, rec.RTTms)
			case simnet.VLANCommodity:
				comm = append(comm, rec.RTTms)
			}
		}
		out = append(out, LatencyStats{
			Config:          rd.Config,
			MedianRE:        median(re),
			MedianCommodity: median(comm),
			NRE:             len(re),
			NCommodity:      len(comm),
		})
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
