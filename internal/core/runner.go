package core

import (
	"context"

	"repro/internal/bgp"
	"repro/internal/netutil"
	"repro/internal/probe"
	"repro/internal/seeds"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// Survey is the full study: one world, one seed selection, and both
// experiments run a week apart with the same probe seeds (§3.2).
type Survey struct {
	Eco    *topo.Ecosystem
	World  *simnet.World
	Sel    *seeds.Selection
	Prober *probe.Prober
	// Opts are the options the survey was built with.
	Opts SurveyOptions
	// Metrics, when set via SetMetrics, instruments the network, the
	// prober, and both experiments. Nil (the default) disables
	// telemetry at zero cost.
	Metrics *telemetry.Registry
	// Workers bounds the shard workers for probing and classification
	// in both experiments; <= 0 means GOMAXPROCS. Survey output is
	// identical for any value.
	Workers int
	// Checkpoint, when non-nil, fires after every configuration round
	// of either experiment with the run's progress filled in (Phase,
	// Done, ChurnStart, Start, Rounds, Origins, and SURF once the second
	// experiment is in flight); callers persist it with WriteCheckpoint
	// to make the run resumable. Rounds and Origins alias the running
	// result: the callback must not mutate them.
	Checkpoint func(ck *Checkpoint)
	// Resume, when non-nil, makes RunBoth continue a checkpointed run
	// instead of starting cold. The survey's network must already hold
	// the checkpointed engine state (bgp.RestoreNetwork) and its
	// registry the checkpointed telemetry state; OpenSurvey does both.
	Resume *Checkpoint
	// Progress, when non-nil, fires after every configuration round of
	// either experiment (phase 0 = SURF, 1 = Internet2) — the hook
	// streaming front ends (resurveyd's SSE feed) subscribe to. Pure
	// observer; survey output does not depend on it.
	Progress func(phase int, ev RoundProgress)

	SURF      *Result
	Internet2 *Result
}

// SetMetrics wires the whole survey — BGP engine, prober, and the
// experiments RunBoth creates — to one registry. Call it before
// RunBoth; a nil registry disables instrumentation. NewPipeline's
// WithMetrics calls it for every survey the pipeline builds.
func (s *Survey) SetMetrics(r *telemetry.Registry) {
	s.Metrics = r
	s.Eco.Net.SetMetrics(r)
	s.Prober.SetMetrics(r)
}

// SurveyOptions bundles the generator knobs.
type SurveyOptions struct {
	Topology topo.GenConfig
	World    simnet.WorldConfig
	Catalog  seeds.CatalogConfig
	// TargetsPerPrefix is the responsive-address goal (§3.2: three).
	TargetsPerPrefix int
}

// DefaultSurveyOptions returns the paper-scale configuration.
func DefaultSurveyOptions() SurveyOptions {
	return SurveyOptions{
		Topology:         topo.DefaultConfig(),
		World:            simnet.DefaultWorldConfig(),
		Catalog:          seeds.DefaultCatalogConfig(),
		TargetsPerPrefix: 3,
	}
}

// SmallSurveyOptions returns a test-scale configuration.
func SmallSurveyOptions() SurveyOptions {
	o := DefaultSurveyOptions()
	o.Topology = topo.SmallConfig()
	return o
}

// NewSurvey builds the world and selects probe seeds.
func NewSurvey(opts SurveyOptions) *Survey {
	eco := topo.Build(opts.Topology)
	world := simnet.BuildWorld(eco, opts.World)
	cat := seeds.BuildCatalog(eco, world, opts.Catalog)

	// Target list: §3.2 excludes prefixes entirely covered by others
	// and the measurement prefix. The generator allocates disjoint
	// prefixes, so coverage exclusion is a near no-op here, but the
	// step is kept for fidelity with real announcement dumps.
	list := make([]netutil.Prefix, 0, len(eco.Prefixes))
	for _, pi := range eco.Prefixes {
		if pi.Prefix == eco.MeasPrefix {
			continue
		}
		list = append(list, pi.Prefix)
	}
	list = netutil.ExcludeCovered(list)
	sel := seeds.Select(cat, list, func(addr uint32, proto simnet.Proto) *simnet.Host {
		return world.Responder(addr, proto, 0)
	}, opts.TargetsPerPrefix)

	return &Survey{
		Eco:    eco,
		World:  world,
		Sel:    sel,
		Prober: probe.NewProber(world),
		Opts:   opts,
	}
}

// SplitOutages divides an outage list between the two experiments in
// order: the first half (rounded down) goes to the first experiment,
// the rest to the second. The halves alias outages.
func SplitOutages(outages []Outage) (first, second []Outage) {
	n := len(outages)
	return outages[:n/2], outages[n/2:]
}

// RunBoth executes the SURF experiment, tears down its R&E
// origination, then runs the Internet2 experiment a (virtual) week
// later, mirroring §3.1's 30 May and 5 June runs. A few member R&E
// sessions fail mid-experiment, as happened during the real runs.
func (s *Survey) RunBoth() {
	// The background context never cancels, so the error path is dead.
	_ = s.RunBothContext(context.Background())
}

// RunBothContext is RunBoth with cooperative cancellation threaded
// into both experiments (see Experiment.RunContext): a cancelled or
// deadline-expired context stops between configuration rounds and
// returns the context's error, leaving SURF/Internet2 nil for
// whatever had not completed. A checkpointed run cancelled mid-flight
// resumes from its last durable round.
func (s *Survey) RunBothContext(ctx context.Context) error {
	surfOutages, i2Outages := SplitOutages(s.pickOutages())
	s.Prober.Workers = s.Workers
	surfStart := bgp.Time(9 * 3600)
	if s.Resume == nil || s.Resume.Phase == 0 {
		x1 := NewSURFExperiment(s.Eco, s.World, s.Prober, s.Sel, surfStart)
		x1.Cfg.Outages = surfOutages
		x1.Metrics = s.Metrics
		x1.Workers = s.Workers
		x1.Checkpoint = s.checkpointHook(0)
		x1.Progress = s.progressHook(0)
		x1.Resume = s.Resume
		res, err := x1.RunContext(ctx)
		if err != nil {
			return err
		}
		s.SURF = res
		x1.TeardownRE()
	} else {
		s.SURF = s.Resume.SURF
	}

	// A checkpoint of the second experiment carries its start time: it
	// derives from the network clock after the SURF teardown, which a
	// resumed run never replays.
	i2Start := s.Eco.Net.Now() + 7*24*3600
	var i2Resume *Checkpoint
	if s.Resume != nil && s.Resume.Phase == 1 {
		i2Start, i2Resume = s.Resume.Start, s.Resume
	}
	x2 := NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, i2Start)
	x2.Cfg.Outages = i2Outages
	x2.Metrics = s.Metrics
	x2.Workers = s.Workers
	x2.Checkpoint = s.checkpointHook(1)
	x2.Progress = s.progressHook(1)
	x2.Resume = i2Resume
	res, err := x2.RunContext(ctx)
	if err != nil {
		return err
	}
	s.Internet2 = res
	return nil
}

// progressHook adapts the survey-level Progress callback to one
// experiment's hook (nil when no subscriber is installed).
func (s *Survey) progressHook(phase int) func(RoundProgress) {
	if s.Progress == nil {
		return nil
	}
	return func(ev RoundProgress) { s.Progress(phase, ev) }
}

// checkpointHook adapts the survey-level Checkpoint callback to one
// experiment's hook, adding the phase and, in the second experiment,
// the completed SURF result; it returns nil (disabling per-round
// checkpoints) when the survey has no callback installed.
func (s *Survey) checkpointHook(phase int) func(*Checkpoint) {
	if s.Checkpoint == nil {
		return nil
	}
	return func(ck *Checkpoint) {
		ck.Phase = phase
		if phase == 1 {
			ck.SURF = s.SURF
		}
		s.Checkpoint(ck)
	}
}

// pickOutages selects a handful of responsive R&E-preferring members
// whose R&E session fails mid-experiment: half lose it for the rest of
// the run (Switch to commodity), half recover it (Oscillating).
func (s *Survey) pickOutages() []Outage {
	const wanted = 4
	var out []Outage
	for _, info := range s.Eco.ASes {
		if len(out) == wanted {
			break
		}
		if info.Class != topo.ClassMember || info.Policy != topo.PolicyPreferRE ||
			len(info.CommodityProviders) == 0 || info.HiddenCommodity || info.VRFSplit {
			continue
		}
		responsive := false
		for _, p := range info.Prefixes {
			if s.Sel.Targets(p) != nil {
				responsive = true
				break
			}
		}
		if !responsive {
			continue
		}
		re := s.Eco.AS(info.REProviders[0])
		o := Outage{A: re.Router, B: info.Router}
		if len(out)%2 == 0 {
			o.DownRound, o.UpRound = 6, -1 // revert to commodity for the rest
		} else {
			o.DownRound, o.UpRound = 2, 4 // brief outage: oscillating
		}
		out = append(out, o)
	}
	return out
}
