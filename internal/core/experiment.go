package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bgp"
	"repro/internal/netutil"
	"repro/internal/probe"
	"repro/internal/seeds"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// PrependConfig is one announcement configuration: extra prepends of
// the R&E origin ASN and of the commodity origin ASN (§3.3).
type PrependConfig struct {
	RE        int
	Commodity int
}

// Label renders "4-0" style names.
func (c PrependConfig) Label() string { return fmt.Sprintf("%d-%d", c.RE, c.Commodity) }

// Announce sets c's per-prefix prepends on prefix: the R&E origin's
// over each of its sessions in Peers order, then the commodity
// origin's. Inside a Network.Batch the touches collapse into one
// delta; outside one each drains as it is made.
func (c PrependConfig) Announce(net *bgp.Network, prefix netutil.Prefix, reOrigin, commodityOrigin bgp.RouterID) {
	for _, nb := range net.Speaker(reOrigin).Peers() {
		net.SetPrefixPrepend(reOrigin, nb, prefix, c.RE)
	}
	for _, nb := range net.Speaker(commodityOrigin).Peers() {
		net.SetPrefixPrepend(commodityOrigin, nb, prefix, c.Commodity)
	}
}

// Schedule returns the nine configurations in the experiment order:
// decreasing R&E prepends, then increasing commodity prepends, to
// minimize the variables changing between tests.
func Schedule() []PrependConfig {
	return []PrependConfig{
		{4, 0}, {3, 0}, {2, 0}, {1, 0}, {0, 0},
		{0, 1}, {0, 2}, {0, 3}, {0, 4},
	}
}

// REPhaseRounds is the number of leading rounds in which the R&E
// announcement varies (Figure 3's left phase).
const REPhaseRounds = 5

// ExperimentConfig describes one run (SURF-May or Internet2-June).
type ExperimentConfig struct {
	// Name labels output ("SURF (29 May 2025)").
	Name string
	// REOrigin is the speaker originating the measurement prefix into
	// the R&E fabric (MeasSURF, or Internet2 itself in June).
	REOrigin bgp.RouterID
	// CommodityOrigin is AS 396955's speaker.
	CommodityOrigin bgp.RouterID
	// Start is the virtual time of the first configuration change;
	// probing follows one hour after each change (§3.3 RFD hygiene).
	Start bgp.Time
	// RoundGap is the wait between configuration changes (3600s).
	RoundGap bgp.Time
	// DormancySeed varies which prefixes suffer packet loss.
	DormancySeed int64
	// Outages are session failures injected during the run — the
	// real-world events behind the paper's "Switch to commodity" and
	// "Oscillating" rows (§4: "an outage during our experiment caused
	// their route to our host to revert to commodity").
	Outages []Outage
	// Quorum is the minimum number of responsive rounds required to
	// classify a prefix; sparser prefixes get InfInsufficientData
	// instead of a paper class. 0 keeps the paper's strict rule (any
	// lost round → unresponsive) bit-for-bit.
	Quorum int
	// Advance, when non-nil, runs before each move of the network's
	// clock to a time `to` — the fault injector's hook for applying
	// scheduled session actions at their virtual times while the
	// network drains toward each probing round. Every move then ends
	// with net.RunTo(to), so the clock stands at `to` either way.
	Advance func(net *bgp.Network, to bgp.Time)
}

// Outage takes the session between A and B down just before the
// DownRound-th configuration is applied and restores it before the
// UpRound-th (negative UpRound: down for the rest of the experiment).
type Outage struct {
	A, B      bgp.RouterID
	DownRound int
	UpRound   int
}

// Experiment binds the method to a simulated world.
type Experiment struct {
	Eco    *topo.Ecosystem
	World  *simnet.World
	Prober *probe.Prober
	Sel    *seeds.Selection
	Cfg    ExperimentConfig
	// Metrics, when non-nil, records phase spans (experiment →
	// prepend-config → round) and classification counters. Nil is the
	// free disabled path.
	Metrics *telemetry.Registry
	// Workers bounds the shard workers used for probing and
	// classification; <= 0 means GOMAXPROCS. Results are identical for
	// any value (see probe.Prober.Workers and ClassifyAll).
	Workers int
	// Checkpoint, when non-nil, fires after each configuration round
	// completes with the experiment's progress: the rounds done so far,
	// the churn-log index recorded at the start of the measured window,
	// the start time, and the partial Rounds and seeded Origins, which
	// alias the running result and must not be mutated.
	Checkpoint func(ck *Checkpoint)
	// Progress, when non-nil, fires after each configuration round
	// (after Checkpoint, so a streamed event implies any checkpoint is
	// already durable) with that round's headline numbers. It is a
	// pure observer for streaming front ends; nothing in the result
	// depends on it.
	Progress func(RoundProgress)
	// Resume, when non-nil, fast-forwards Run past the first Done
	// configuration rounds: the network must already hold the
	// checkpointed engine state, and Resume carries the outputs those
	// rounds produced. ChurnStart stays valid across the restore, since
	// the restored churn log holds everything since the world was built.
	Resume *Checkpoint
}

// Converge performs the pre-measurement part of Run: run the network
// to one round gap before the experiment start, announce the
// measurement prefix there with the first configuration applied, and
// drain the network to the start. Run calls it itself; call it directly
// only to stop at that state — the optimizer snapshots it as the fork
// point every candidate evaluation rewinds to.
func (x *Experiment) Converge() {
	net := x.Eco.Net
	meas := x.Eco.MeasPrefix
	first := Schedule()[0]
	net.RunTo(x.Cfg.Start - x.Cfg.RoundGap)
	st0 := net.Stats()
	net.Batch(func() {
		net.Originate(x.Cfg.CommodityOrigin, meas)
		net.Originate(x.Cfg.REOrigin, meas)
		first.Announce(net, meas, x.Cfg.REOrigin, x.Cfg.CommodityOrigin)
	})
	x.advance(x.Cfg.Start)
	st1 := net.Stats()
	x.Metrics.Counter("core_initial_convergence_decision_runs_total").Add(st1.DecisionRuns - st0.DecisionRuns)
	x.Metrics.Counter("core_initial_convergence_best_changes_total").Add(st1.BestChanges - st0.BestChanges)
}

// PrefixResult is the per-prefix outcome. Observe fills Prefix and
// Seq; ClassifyAll the rest.
type PrefixResult struct {
	Prefix    netutil.Prefix
	Seq       []RoundObs
	Inference Inference
	// Confidence and Observed carry the degradation-aware evidence
	// accounting (see ClassifyRobust); under the strict paper rule
	// (Quorum 0) Confidence is 1 for every characterized prefix.
	Confidence float64
	Observed   int
}

// Result is one experiment's complete output.
type Result struct {
	Name string
	// Configs and ConfigTimes record the schedule as executed.
	Configs     []PrependConfig
	ConfigTimes []bgp.Time
	// Rounds are the raw probing rounds, each holding its records in
	// the selection's canonical prefix order, as the prober writes them.
	Rounds []*probe.Round
	// PerPrefix holds the classification of every probed prefix, in
	// canonical prefix order; Find looks one up.
	PerPrefix []*PrefixResult
	// Churn is the collector-observed update log for the measurement
	// prefix, windowed over the whole experiment.
	Churn []bgp.UpdateRecord
	// CollectorOrigins records, per collector peer AS, the set of
	// measurement-prefix origin ASNs that peer exported at any point
	// (Table 3's raw material), plus the final origin.
	CollectorOrigins map[uint32]*PeerView
}

// Find returns p's result, nil if p was not probed.
func (r *Result) Find(p netutil.Prefix) *PrefixResult {
	i, ok := slices.BinarySearchFunc(r.PerPrefix, p, func(pr *PrefixResult, p netutil.Prefix) int {
		return netutil.ComparePrefixes(pr.Prefix, p)
	})
	if !ok {
		return nil
	}
	return r.PerPrefix[i]
}

// PeerView is what one collector peer showed for the measurement
// prefix during the experiment.
type PeerView struct {
	OriginsSeen map[uint32]bool
	FinalOrigin uint32 // 0 when withdrawn at the end
}

// RoundProgress is one configuration round's headline numbers, as
// handed to the Progress callback (and streamed by resurveyd).
type RoundProgress struct {
	// Experiment names the run ("SURF (29 May 2025)").
	Experiment string `json:"experiment"`
	// Config is the prepend configuration just probed ("4-0").
	Config string `json:"config"`
	// Round is 1-based rounds completed; Rounds is the schedule total.
	Round  int `json:"round"`
	Rounds int `json:"rounds"`
	// Probes and Responded count the round's probe records.
	Probes    int `json:"probes"`
	Responded int `json:"responded"`
	// Time is the virtual probing time.
	Time bgp.Time `json:"virtual_time"`
}

// Run executes the experiment: announce at "4-0", then step through
// the schedule, waiting RoundGap between changes and probing before
// each next change, exactly as §3.3 describes.
func (x *Experiment) Run() *Result {
	res, _ := x.RunContext(context.Background())
	return res
}

// RunContext is Run with cooperative cancellation: the context is
// checked between configuration rounds (the natural checkpoint
// boundary — a checkpointed run resumes exactly there), so a
// cancelled or deadline-expired context stops the experiment within
// one round and returns the context's error with a nil Result. The
// convergence work inside a round always completes; nothing observes
// a half-applied configuration.
func (x *Experiment) RunContext(ctx context.Context) (*Result, error) {
	var expSpan *telemetry.Span
	if x.Resume != nil && x.Resume.span != nil {
		// The checkpoint left this span open; keep nesting under it
		// instead of starting a parallel experiment phase.
		expSpan = x.Resume.span
	} else {
		expSpan = x.Metrics.StartSpan("experiment:" + x.Cfg.Name)
	}
	defer expSpan.End()
	net := x.Eco.Net
	meas := x.Eco.MeasPrefix
	res := &Result{
		Name:             x.Cfg.Name,
		CollectorOrigins: make(map[uint32]*PeerView),
	}

	// Loss injection for this experiment's window.
	x.World.ClearDormancy()
	expEnd := x.Cfg.Start + bgp.Time(len(Schedule())+1)*x.Cfg.RoundGap
	x.World.InjectDormancy(x.Cfg.Start, expEnd, x.Cfg.DormancySeed)

	// Terminal mapping: responses reaching the R&E origin arrive on
	// the R&E VLAN; the commodity origin terminates the commodity
	// VLAN (Figure 2).
	x.World.SetTerminals(x.Cfg.REOrigin, x.Cfg.CommodityOrigin)

	churnStart := 0
	t := x.Cfg.Start
	startRound := 0
	if x.Resume != nil {
		// The network was restored to the state the checkpoint captured
		// (mid-experiment, after round Done); replay the bookkeeping the
		// completed rounds produced and rejoin the loop.
		if x.Resume.ChurnStart > len(net.Churn.Records) {
			return nil, fmt.Errorf("core: resume: churn start %d beyond the restored churn log (%d records)",
				x.Resume.ChurnStart, len(net.Churn.Records))
		}
		startRound = x.Resume.Done
		res.Rounds = append(res.Rounds, x.Resume.Rounds...)
		for i, cfg := range Schedule()[:startRound] {
			res.Configs = append(res.Configs, cfg)
			res.ConfigTimes = append(res.ConfigTimes, x.Cfg.Start+bgp.Time(i)*x.Cfg.RoundGap)
		}
		for as, pv := range x.Resume.Origins {
			res.CollectorOrigins[as] = pv
		}
		churnStart = x.Resume.ChurnStart
		t = x.Cfg.Start + bgp.Time(startRound)*x.Cfg.RoundGap
	} else {
		// The experiment "began shortly before 9:00 UTC with the prepend
		// configuration at 4-0 for an hour prior" (§3.3): announce both
		// routes with the first configuration already applied, an hour
		// before the measured window, and let the announcement burst
		// converge outside it.
		x.Converge()

		churnStart = len(net.Churn.Records)

		// §4.1.1 combines the experiment-start RIB snapshot with the
		// update files; seed each collector peer's view with what it
		// exported before the measured window began.
		for _, col := range x.Eco.Collectors {
			sp := net.Speaker(col)
			for _, peer := range sp.Peers() {
				r := sp.AdjIn(meas, peer)
				if r == nil {
					continue
				}
				peerAS := uint32(sp.Peer(peer).NeighborAS)
				pv := res.CollectorOrigins[peerAS]
				if pv == nil {
					pv = &PeerView{OriginsSeen: make(map[uint32]bool)}
					res.CollectorOrigins[peerAS] = pv
				}
				origin := uint32(r.Path.Origin())
				pv.OriginsSeen[origin] = true
				pv.FinalOrigin = origin
			}
		}
	}

	for i, cfg := range Schedule() {
		if i < startRound {
			continue
		}
		if err := ctx.Err(); err != nil {
			// Stop on the round boundary: the last checkpoint (if any)
			// already captured rounds [0, i), so a resumed run continues
			// exactly here and reproduces the uninterrupted output.
			return nil, err
		}
		cfgSpan := x.Metrics.StartSpan("config:" + cfg.Label())
		// Apply the configuration as one batched delta: duplicate
		// (router, prefix, neighbor) touches collapse into a single
		// evaluation.
		stBefore := net.Stats()
		net.Batch(func() {
			for _, o := range x.Cfg.Outages {
				if o.DownRound == i {
					net.SetSessionDown(o.A, o.B)
				}
				if o.UpRound == i {
					net.SetSessionUp(o.A, o.B)
				}
			}
			cfg.Announce(net, meas, x.Cfg.REOrigin, x.Cfg.CommodityOrigin)
		})
		res.Configs = append(res.Configs, cfg)
		res.ConfigTimes = append(res.ConfigTimes, t)

		// Let BGP converge during the hour's wait, then probe.
		probeAt := t + x.Cfg.RoundGap
		x.advance(probeAt)
		// Delta-convergence stats, per configuration (mode-identical;
		// see the initial-convergence comment).
		stAfter := net.Stats()
		x.Metrics.Counter(telemetry.Label("core_delta_decision_runs_total", "config", cfg.Label())).
			Add(stAfter.DecisionRuns - stBefore.DecisionRuns)
		x.Metrics.Counter(telemetry.Label("core_delta_best_changes_total", "config", cfg.Label())).
			Add(stAfter.BestChanges - stBefore.BestChanges)
		roundSpan := x.Metrics.StartSpan("round")
		round := x.Prober.Run(cfg.Label(), probeAt, x.Sel)
		roundSpan.End()
		res.Rounds = append(res.Rounds, round)
		t = probeAt
		cfgSpan.End()
		if x.Checkpoint != nil {
			x.Checkpoint(&Checkpoint{
				Done:       i + 1,
				ChurnStart: churnStart,
				Start:      x.Cfg.Start,
				Rounds:     res.Rounds,
				Origins:    res.CollectorOrigins,
			})
		}
		if x.Progress != nil {
			x.Progress(RoundProgress{
				Experiment: x.Cfg.Name,
				Config:     cfg.Label(),
				Round:      i + 1,
				Rounds:     len(Schedule()),
				Probes:     len(round.Records),
				Responded:  round.Responded(),
				Time:       probeAt,
			})
		}
	}
	// Drain any stragglers before snapshotting collector state, then
	// restore any sessions still down so the next experiment starts
	// from a healthy network.
	net.RunToQuiescence()
	churnEnd := len(net.Churn.Records)
	for _, o := range x.Cfg.Outages {
		if o.UpRound < 0 || o.UpRound >= len(Schedule()) {
			net.SetSessionUp(o.A, o.B)
		}
	}
	net.RunToQuiescence()

	x.classify(res)
	x.snapshotCollectors(res, net.Churn.Records[churnStart:churnEnd])
	return res, nil
}

// advance drains the network to `to`, via the injector hook first when
// one is configured, and leaves the clock at `to`.
func (x *Experiment) advance(to bgp.Time) {
	if x.Cfg.Advance != nil {
		x.Cfg.Advance(x.Eco.Net, to)
	}
	x.Eco.Net.RunTo(to)
}

// classify reduces rounds to per-prefix rows (Observe) and classifies
// them under the experiment's quorum. Every selected prefix has a
// record in every live round, so the rows are exactly the selection's.
func (x *Experiment) classify(res *Result) {
	sp := x.Metrics.StartSpan("classify")
	defer sp.End()
	res.PerPrefix = Observe(res.Rounds, 0)
	ClassifyAll(res.PerPrefix, x.Cfg.Quorum, x.Workers, x.Metrics)
}

// snapshotCollectors extracts the measurement-prefix updates observed
// at collectors and the per-peer origin history (Table 3, Figure 3).
func (x *Experiment) snapshotCollectors(res *Result, records []bgp.UpdateRecord) {
	meas := x.Eco.MeasPrefix
	for _, rec := range records {
		if rec.Prefix != meas {
			continue
		}
		res.Churn = append(res.Churn, rec)
		pv := res.CollectorOrigins[uint32(rec.PeerAS)]
		if pv == nil {
			pv = &PeerView{OriginsSeen: make(map[uint32]bool)}
			res.CollectorOrigins[uint32(rec.PeerAS)] = pv
		}
		if rec.Announce {
			origin := uint32(rec.Path.Origin())
			pv.OriginsSeen[origin] = true
			pv.FinalOrigin = origin
		} else {
			pv.FinalOrigin = 0
		}
	}
}

// NewSURFExperiment configures the May (SURF) run.
func NewSURFExperiment(eco *topo.Ecosystem, w *simnet.World, pr *probe.Prober, sel *seeds.Selection, start bgp.Time) *Experiment {
	return &Experiment{
		Eco: eco, World: w, Prober: pr, Sel: sel,
		Cfg: ExperimentConfig{
			Name:            "SURF (29 May 2025)",
			REOrigin:        eco.MeasSURF.Router,
			CommodityOrigin: eco.MeasCommodity.Router,
			Start:           start,
			RoundGap:        3600,
			DormancySeed:    5001,
		},
	}
}

// NewInternet2Experiment configures the June (Internet2) run.
func NewInternet2Experiment(eco *topo.Ecosystem, w *simnet.World, pr *probe.Prober, sel *seeds.Selection, start bgp.Time) *Experiment {
	return &Experiment{
		Eco: eco, World: w, Prober: pr, Sel: sel,
		Cfg: ExperimentConfig{
			Name:            "Internet2 (5 June 2025)",
			REOrigin:        eco.Internet2.Router,
			CommodityOrigin: eco.MeasCommodity.Router,
			Start:           start,
			RoundGap:        3600,
			DormancySeed:    6001,
		},
	}
}

// TeardownRE withdraws the R&E origination and resets prepends, so a
// second experiment can start from a clean slate (the real experiments
// ran a week apart).
func (x *Experiment) TeardownRE() {
	net := x.Eco.Net
	meas := x.Eco.MeasPrefix
	net.Batch(func() {
		PrependConfig{}.Announce(net, meas, x.Cfg.REOrigin, x.Cfg.CommodityOrigin)
		net.WithdrawOrigination(x.Cfg.REOrigin, meas)
	})
	net.RunToQuiescence()
}
