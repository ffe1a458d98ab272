// Package core implements the paper's contribution: the route-
// preference inference method. It orchestrates the two experiments
// (nine AS-path-prepend configurations each, §3.3), classifies each
// prefix's per-round response interfaces into the Table 1 categories,
// compares experiments (Table 2), validates inferences against public
// BGP views (Table 3), relates inferences to origin prepending
// (Table 4), analyses RIPE's equal-localpref route selection
// (Figure 5), models the route-age/path-length interplay (Figure 7 /
// Appendix A), and derives switch-configuration CDFs (Figure 8).
package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/netutil"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// RoundObs summarizes the responses of one prefix in one probing
// round.
type RoundObs uint8

// Round observations.
const (
	// ObsLoss means no system in the prefix responded this round; the
	// paper excludes such prefixes from characterization ("a response
	// from at least one system during every active probing round").
	ObsLoss RoundObs = iota
	// ObsRE: every response arrived on the R&E VLAN.
	ObsRE
	// ObsCommodity: every response arrived on the commodity VLAN.
	ObsCommodity
	// ObsMixed: responses arrived on both VLANs within the round. A
	// round's observation is the OR of its records' (see observe).
	ObsMixed = ObsRE | ObsCommodity
)

func (o RoundObs) String() string {
	switch o {
	case ObsLoss:
		return "loss"
	case ObsRE:
		return "re"
	case ObsCommodity:
		return "commodity"
	case ObsMixed:
		return "mixed"
	default:
		return fmt.Sprintf("obs(%d)", uint8(o))
	}
}

// Inference is the per-prefix category of Table 1.
type Inference uint8

// Inference categories.
const (
	// InfUnresponsive marks prefixes excluded for packet loss.
	InfUnresponsive Inference = iota
	// InfAlwaysRE: responses always returned over R&E, regardless of
	// AS path length changes — higher localpref on R&E routes (or no
	// usable commodity return path).
	InfAlwaysRE
	// InfAlwaysCommodity: responses always returned over commodity.
	InfAlwaysCommodity
	// InfSwitchToRE: responses returned over commodity, then over
	// R&E, with exactly one transition — the signature of equal
	// localpref with an AS-path-length tie-break (§4).
	InfSwitchToRE
	// InfSwitchToCommodity: the unexpected reverse transition; the
	// paper attributes observed instances to outages.
	InfSwitchToCommodity
	// InfMixed: at least one round saw both VLANs.
	InfMixed
	// InfOscillating: multiple transitions between route types.
	InfOscillating
	// InfInsufficientData marks prefixes that responded in some rounds
	// but in fewer than the configured evidence quorum — the
	// degradation-aware outcome, distinct from total loss, used by the
	// resilient pipeline instead of silently mislabeling a sparse
	// sequence.
	InfInsufficientData
	numInferences
)

func (i Inference) String() string {
	switch i {
	case InfUnresponsive:
		return "unresponsive"
	case InfAlwaysRE:
		return "Always R&E"
	case InfAlwaysCommodity:
		return "Always commodity"
	case InfSwitchToRE:
		return "Switch to R&E"
	case InfSwitchToCommodity:
		return "Switch to commodity"
	case InfMixed:
		return "Mixed R&E + commodity"
	case InfOscillating:
		return "Oscillating"
	case InfInsufficientData:
		return "Insufficient data"
	default:
		return fmt.Sprintf("inference(%d)", uint8(i))
	}
}

// EqualLocalPref reports whether the inference implies the network
// assigned the same localpref to its R&E and commodity routes and
// tie-broke on AS path length. Per §4, only the commodity→R&E switch
// supports that conclusion given the experiment's prepend ordering.
func (i Inference) EqualLocalPref() bool { return i == InfSwitchToRE }

// observe is what one record shows on its own: the VLAN its response
// arrived on, ObsLoss if it has none.
func observe(r *probe.Record) RoundObs { return obsOf(r.Responded, r.VLAN) }

// observeAt is what record j of rd shows, read without rebuilding the
// record.
func observeAt(rd *probe.Round, j int) RoundObs { return obsOf(rd.Outcome(j)) }

func obsOf(responded bool, vlan simnet.VLAN) RoundObs {
	if responded {
		switch vlan {
		case simnet.VLANRE:
			return ObsRE
		case simnet.VLANCommodity:
			return ObsCommodity
		}
	}
	return ObsLoss
}

// ObserveRound reduces records [lo, hi) of one round — one prefix's
// run of them — to a RoundObs.
func ObserveRound(rd *probe.Round, lo, hi int) RoundObs {
	var o RoundObs
	for j := lo; j < hi; j++ {
		o |= observeAt(rd, j)
	}
	return o
}

// Observe reduces probing rounds to every prefix's observation
// sequence, one row per prefix in canonical prefix order: row.Seq[i] is
// what the prefix's targets showed in rounds[i], and ObsLoss where that
// round holds no record for it — the paper's rule that a prefix must
// answer in every round. The rows carry Prefix and Seq only; ClassifyAll
// fills in the rest. It is the one records→observations reduction; the
// classifier, the ablations and cmd/reinfer all read it. (The
// optimizer's probe census, one live round, applies ObserveRound to
// each prefix's span of slots.)
//
// Observe reads each round in its own layout (probe.Round) and never
// expands a record. A round in the prober layout is grouped already:
// its groups are its selection's prefix runs (probe.Plan.Span), read
// slot by slot. Under a target budget the slots each prefix keeps —
// its first maxTargets distinct destinations by address — depend only
// on the selection, so they are computed once per plan (keepTargets)
// and shared by every round of it, an experiment's nine. A round in
// the record layout is grouped by groupRecords, which orders record
// positions and leaves Round.Records as it found them. maxTargets > 0
// is the target-budget ablation's question; 0 keeps every record.
func Observe(rounds []*probe.Round, maxTargets int) []*PrefixResult {
	var (
		rows   []*PrefixResult
		order  []int32 // positions in a record-layout round, reused across rounds
		starts []int32 // where each prefix's group begins in order, reused
		kept   keptTargets
		pool   []PrefixResult
		seqs   []RoundObs
	)
	for i, rd := range rounds {
		// Rows [0, known) are sorted; this round's new prefixes are
		// appended after them, in canonical order.
		known, next := len(rows), 0
		// rowOf returns p's row, adding one if no earlier round held p;
		// left, the round's groups from p's on, bounds its new rows, so
		// rows and sequences come from one allocation each.
		rowOf := func(p netutil.Prefix, left int) *PrefixResult {
			var found bool
			if next, found = seek(rows[:known], next, p); found {
				return rows[next]
			}
			if len(pool) == 0 {
				pool, seqs = make([]PrefixResult, left), make([]RoundObs, left*len(rounds))
			}
			row := &pool[0]
			row.Prefix, row.Seq = p, seqs[:len(rounds):len(rounds)]
			pool, seqs = pool[1:], seqs[len(rounds):]
			rows = append(rows, row)
			return row
		}
		if plan := rd.Plan(); plan != nil {
			prefixes := plan.Selection().Prefixes
			if maxTargets > 0 && kept.plan != plan {
				kept = keepTargets(plan, maxTargets, kept)
			}
			for k := range prefixes {
				lo, hi := plan.Span(k)
				if lo == hi {
					continue
				}
				obs := &rowOf(prefixes[k].Prefix, len(prefixes)-k).Seq[i]
				if maxTargets <= 0 {
					*obs |= ObserveRound(rd, lo, hi)
					continue
				}
				for _, j := range kept.slots[kept.starts[k]:kept.starts[k+1]] {
					*obs |= observeAt(rd, int(j))
				}
			}
		} else {
			recs := rd.Records
			order, starts = groupRecords(recs, maxTargets, order, starts)
			groups := len(starts) - 1
			for g := 0; g < groups; g++ {
				group := order[starts[g]:starts[g+1]]
				row := rowOf(recs[group[0]].Prefix, groups-g)
				for _, j := range firstTargets(group, maxTargets, func(j int32) uint32 { return recs[j].Dst }) {
					row.Seq[i] |= observe(&recs[j])
				}
			}
		}
		if known > 0 && len(rows) > known {
			slices.SortFunc(rows, func(a, b *PrefixResult) int { return netutil.ComparePrefixes(a.Prefix, b.Prefix) })
		}
	}
	return rows
}

// keptTargets is what a target budget keeps of a plan: slots holds
// each prefix's slots in (destination, slot) order, trimmed to its
// first budget distinct destinations, the prefixes' in selection
// order; starts[k] is where prefix k's begin, then len(slots).
type keptTargets struct {
	plan   *probe.Plan
	slots  []int32
	starts []int32
}

// keepTargets computes what budget (> 0) keeps of plan, reusing kt's
// storage: each prefix's slots ordered and trimmed as groupRecords and
// firstTargets order and trim a record-layout group, the destination at
// a slot being its target's.
func keepTargets(plan *probe.Plan, budget int, kt keptTargets) keptTargets {
	prefixes := plan.Selection().Prefixes
	kt.plan, kt.slots, kt.starts = plan, kt.slots[:0], append(kt.starts[:0], 0)
	for k := range prefixes {
		tgts := prefixes[k].Targets
		lo, hi := plan.Span(k)
		dst := func(j int32) uint32 { return tgts[int(j)-lo].Addr }
		run := len(kt.slots)
		for j := lo; j < hi; j++ {
			kt.slots = append(kt.slots, int32(j))
		}
		group := kt.slots[run:]
		slices.SortFunc(group, byDestination(dst))
		kt.slots = kt.slots[:run+len(firstTargets(group, budget, dst))]
		kt.starts = append(kt.starts, int32(len(kt.slots)))
	}
	return kt
}

// byDestination orders positions by their destination address, dst,
// then by position: a prefix's group under a target budget.
func byDestination(dst func(j int32) uint32) func(a, b int32) int {
	return func(a, b int32) int {
		if c := cmp.Compare(dst(a), dst(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
}

// groupRecords fills order with the positions of recs, a record-layout
// round's, grouped by prefix in canonical order, each group by
// destination address and then position under a target budget
// (maxTargets > 0) and by position otherwise, and starts with where
// each group begins in order followed by len(order). Records already in
// runs — a prefix's records in one run, runs in ascending prefix order,
// as resurvey -json writes them — are recognised in one pass and need
// no sort without a budget and only each run sorted with one; any other
// order (probe.ReadJSON keeps what the file holds) is sorted whole.
// Both give the one total order (prefix, destination under a budget,
// position). Prober-layout rounds never come here: Observe reads their
// groups off their plan.
func groupRecords(recs []probe.Record, maxTargets int, order, starts []int32) ([]int32, []int32) {
	order, starts = order[:0], starts[:0]
	for j := range recs {
		order = append(order, int32(j))
	}
	byTarget := byDestination(func(j int32) uint32 { return recs[j].Dst })
	runs := true
	for j := range recs {
		if j > 0 && recs[j].Prefix == recs[j-1].Prefix {
			continue
		}
		if j > 0 && netutil.ComparePrefixes(recs[j-1].Prefix, recs[j].Prefix) > 0 {
			runs = false
			break
		}
		starts = append(starts, int32(j))
	}
	if runs {
		starts = append(starts, int32(len(order)))
		if maxTargets > 0 {
			for g := 1; g < len(starts); g++ {
				if run := order[starts[g-1]:starts[g]]; len(run) > 1 {
					slices.SortFunc(run, byTarget)
				}
			}
		}
		return order, starts
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := netutil.ComparePrefixes(recs[a].Prefix, recs[b].Prefix); c != 0 {
			return c
		}
		if maxTargets > 0 {
			return byTarget(a, b)
		}
		return cmp.Compare(a, b)
	})
	starts = starts[:0]
	for k, j := range order {
		if k == 0 || recs[j].Prefix != recs[order[k-1]].Prefix {
			starts = append(starts, int32(k))
		}
	}
	return order, append(starts, int32(len(order)))
}

// seek advances cursor j over rows, which are in canonical prefix
// order, to the first row not below p, and reports whether that row is
// p's: the step of every side-by-side walk of two ordered sequences.
func seek(rows []*PrefixResult, j int, p netutil.Prefix) (int, bool) {
	for j < len(rows) && netutil.ComparePrefixes(rows[j].Prefix, p) < 0 {
		j++
	}
	return j, j < len(rows) && rows[j].Prefix == p
}

// firstTargets trims group — one prefix's positions, sorted by their
// destination address, dst — to the positions of its first k distinct
// destinations; k <= 0 keeps them all.
func firstTargets(group []int32, k int, dst func(j int32) uint32) []int32 {
	if k <= 0 {
		return group
	}
	distinct := 0
	for i, j := range group {
		if i > 0 && dst(j) == dst(group[i-1]) {
			continue
		}
		if distinct == k {
			return group[:i]
		}
		distinct++
	}
	return group
}

// Classify reduces a prefix's per-round observation sequence to its
// Table 1 category. The sequence must follow the experiment's round
// order (decreasing R&E prepends, then increasing commodity prepends).
func Classify(seq []RoundObs) Inference {
	if len(seq) == 0 {
		return InfUnresponsive
	}
	for _, o := range seq {
		if o == ObsLoss {
			return InfUnresponsive
		}
	}
	for _, o := range seq {
		if o == ObsMixed {
			return InfMixed
		}
	}
	transitions := 0
	for i := 1; i < len(seq); i++ {
		if seq[i] != seq[i-1] {
			transitions++
		}
	}
	switch {
	case transitions == 0 && seq[0] == ObsRE:
		return InfAlwaysRE
	case transitions == 0:
		return InfAlwaysCommodity
	case transitions == 1 && seq[0] == ObsCommodity:
		return InfSwitchToRE
	case transitions == 1:
		return InfSwitchToCommodity
	default:
		return InfOscillating
	}
}

// RobustResult is the degradation-aware classification outcome.
type RobustResult struct {
	Inference Inference
	// Confidence in [0, 1]: the observed-round fraction, halved when a
	// route-type transition spans unobserved rounds (the transition
	// point — and hence the switch configuration — is then ambiguous).
	Confidence float64
	// Observed is how many rounds produced a response.
	Observed int
}

// ClassifyRobust classifies a sequence that may contain loss rounds,
// gated by an evidence quorum. Unlike Classify — which excludes any
// prefix with a single lost round, the paper's strict rule — it
// compresses the observed rounds and classifies those, provided at
// least quorum rounds responded:
//
//   - no round responded → InfUnresponsive
//   - fewer than quorum rounds responded → InfInsufficientData
//   - otherwise the compressed sequence's Classify result
//
// Compression cannot invent transitions, so a sparse Always-R&E prefix
// can never come back as a spurious Switch; at worst a transition
// hidden inside a loss gap halves the confidence. A quorum <= 0
// reproduces Classify exactly.
func ClassifyRobust(seq []RoundObs, quorum int) RobustResult {
	if quorum <= 0 {
		r := RobustResult{Inference: Classify(seq), Observed: 0}
		for _, o := range seq {
			if o != ObsLoss {
				r.Observed++
			}
		}
		if r.Inference != InfUnresponsive {
			r.Confidence = 1
		}
		return r
	}
	compressed := make([]RoundObs, 0, len(seq))
	gapBefore := make([]bool, 0, len(seq)) // loss gap since previous observation
	gap := false
	for _, o := range seq {
		if o == ObsLoss {
			gap = true
			continue
		}
		compressed = append(compressed, o)
		gapBefore = append(gapBefore, gap)
		gap = false
	}
	r := RobustResult{Observed: len(compressed)}
	if len(seq) > 0 {
		r.Confidence = float64(len(compressed)) / float64(len(seq))
	}
	switch {
	case len(compressed) == 0:
		r.Inference = InfUnresponsive
		r.Confidence = 0
		return r
	case len(compressed) < quorum:
		r.Inference = InfInsufficientData
		return r
	}
	r.Inference = Classify(compressed)
	for i := 1; i < len(compressed); i++ {
		if compressed[i] != compressed[i-1] && gapBefore[i] {
			r.Confidence /= 2
			break
		}
	}
	return r
}

// classifyShardSize is the number of prefixes per classification
// shard — fixed, so shard artifacts do not depend on worker count.
const classifyShardSize = 64

// ClassifyAll classifies Observe's rows in place under the evidence
// quorum (ClassifyRobust; quorum 0 is the paper's strict rule and
// equals Classify). It is the one classification pass: the live
// experiments and cmd/reinfer both run it. Rows are classified over
// fixed-size shards of their canonical order by up to workers
// goroutines; each row reads only its own sequence and the counters are
// atomic, so the outcome is identical for any workers value. reg (nil
// disables it) receives core_classifications_total{label} and
// core_quorum_failures_total, every label present even at zero, and the
// "classify" shard timings.
func ClassifyAll(rows []*PrefixResult, quorum, workers int, reg *telemetry.Registry) {
	var byLabel [numInferences]*telemetry.Counter
	for inf := Inference(0); inf < numInferences; inf++ {
		byLabel[inf] = reg.Counter(telemetry.Label("core_classifications_total", "label", inf.String()))
	}
	quorumFailures := reg.Counter("core_quorum_failures_total")
	_, timings := parallel.CollectTimed(len(rows), classifyShardSize, workers,
		func(s parallel.Shard) struct{} {
			for _, pr := range rows[s.Lo:s.Hi] {
				rr := ClassifyRobust(pr.Seq, quorum)
				pr.Inference, pr.Confidence, pr.Observed = rr.Inference, rr.Confidence, rr.Observed
				byLabel[rr.Inference].Inc()
				if rr.Inference == InfInsufficientData {
					quorumFailures.Inc()
				}
			}
			return struct{}{}
		})
	for _, t := range timings {
		reg.AddShardTiming("classify", t.Shard, t.Items, t.Duration)
	}
}

// SwitchConfig returns the index of the first round in which the
// prefix used the R&E route after having used commodity, or -1 if the
// sequence is not a commodity→R&E switch. Figure 8 aggregates these.
func SwitchConfig(seq []RoundObs) int {
	if Classify(seq) != InfSwitchToRE {
		return -1
	}
	for i, o := range seq {
		if o == ObsRE {
			return i
		}
	}
	return -1
}
