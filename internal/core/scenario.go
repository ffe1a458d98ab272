package core

// Scenario sweeps: the adversarial counterpart of resilience.go. Where
// the fault sweep measures how much *operational* failure the
// inference tolerates, the scenario sweep injects an attack (a
// forged-origin hijack of the measurement prefix) or a
// misconfiguration (a Gao-Rexford-violating route leak) and measures
// how route-origin validation changes the picture: each sweep point
// deploys RPKI ROV on a seeded fraction of ASes, runs the Internet2
// experiment with the scenario injected mid-window, takes a mid-window
// catchment census (which ASes route the measurement prefix toward the
// attacker vs a legitimate origin), and scores the classification
// against generator ground truth. The deployed sets are nested in the
// adoption fraction (see rpki.DeploySet), so pollution is monotonically
// non-increasing in adoption — and at adoption 1.0 with the covering
// ROA the mid-window network state (attacker aside) is byte-equal to a
// no-attack baseline, which the differential tests pin.

import (
	"context"
	"fmt"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/netutil"
	"repro/internal/report"
	"repro/internal/rpki"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// ScenarioSweepOptions configures RunScenarioSweepContext.
type ScenarioSweepOptions struct {
	// Survey is the world configuration rebuilt fresh at every
	// adoption point (and once for the baseline), so points are
	// independent and each is exactly reproducible.
	Survey SurveyOptions
	// Scenario is the family: faults.ScenarioHijack or
	// faults.ScenarioLeak.
	Scenario string
	// Adoptions are the ROV deployment fractions swept.
	Adoptions []float64
	// ScenarioSeed drives schedule generation (attacker/leaker draw
	// and event timing) at every point.
	ScenarioSeed int64
	// ROVSeed drives the per-AS adoption draws. It is shared across
	// points, which is what makes the deployed sets nested.
	ROVSeed int64
	// Metrics, when non-nil, instruments every point's world and
	// records per-adoption census gauges.
	Metrics *telemetry.Registry
	// Workers bounds how many points run concurrently; <= 0 means
	// GOMAXPROCS. Points record into private sub-registries merged in
	// adoption order, so output is identical for any value.
	Workers int
}

// DefaultScenarioSweepOptions sweeps the canonical adoption ladder
// over the small topology.
func DefaultScenarioSweepOptions(scenario string) ScenarioSweepOptions {
	return ScenarioSweepOptions{
		Survey:       SmallSurveyOptions(),
		Scenario:     scenario,
		Adoptions:    []float64{0, 0.25, 0.5, 0.75, 1},
		ScenarioSeed: 2025,
		ROVSeed:      1889,
	}
}

// ScenarioPoint is one sweep point's outcome. The first returned point
// is always the no-injection baseline (Baseline true, Adoption 0, no
// ROV); comparison points follow in adoption order.
type ScenarioPoint struct {
	Adoption float64
	Baseline bool
	// Deployed is how many ASes filter invalids at this point.
	Deployed int

	// Hijack census at the mid-window measurement instant: per AS
	// (attacker excluded), does the best route for the measurement
	// prefix lead to the attacker (polluted), a legitimate origin
	// (clean), or nowhere (unreachable)?
	PollutedASes    int
	CleanASes       int
	UnreachableASes int

	// Leak census at the same instant: ASes whose best route for a
	// live-engine prefix (the measurement prefix or the default route —
	// member prefixes are solved statically, not announced) traverses
	// the leaker, and how many such (AS, prefix) routes exist.
	LeakAffectedASes int
	LeakedRoutes     int

	// MidSignature digests every speaker's best routes at the
	// measurement instant, excluding the injected actor's own router —
	// the byte-equality anchor: at hijack adoption 1.0 every speaker
	// drops the forged route at import, so it must equal the
	// baseline's. EndDigest is the same digest (nobody excluded) after
	// the schedule completes and the network quiesces. The attack is
	// withdrawn and the leak restored by then, but end-state equality
	// with the baseline is only guaranteed when no best route ever
	// changed (hijack at adoption 1.0): the decision process prefers
	// the oldest route (bgp.ByAge), so a perturbation that flipped an
	// age tie-break legitimately sticks after the trigger is removed.
	// What IS guaranteed is that EndDigest is identical across
	// adoptions that saw the same perturbation — the injected points
	// of a leak sweep all converge to one end state.
	MidSignature uint64
	EndDigest    uint64

	// Classification quality, scored like the fault sweep.
	Summary    *SurveySummary
	Validation *Validation
	Accuracy   float64
}

// RunScenarioSweepContext runs the baseline plus one point per
// adoption fraction through sweepPoints, each against its own freshly
// built world, one point per worker. Telemetry merges in point order
// (baseline first), so the merged registry is identical for any
// Workers value. The context is checked before each point and between
// experiment rounds; cancellation returns the context error with nil
// points.
func RunScenarioSweepContext(ctx context.Context, opts ScenarioSweepOptions) ([]ScenarioPoint, error) {
	if !faults.KnownScenario(opts.Scenario) {
		return nil, fmt.Errorf("core: unknown scenario %q (have %v)", opts.Scenario, faults.ScenarioNames())
	}
	if len(opts.Adoptions) == 0 {
		opts.Adoptions = DefaultScenarioSweepOptions(opts.Scenario).Adoptions
	}
	// Point 0 is the baseline; adoption points follow.
	return sweepPoints(ctx, 1+len(opts.Adoptions), opts.Workers, opts.Metrics, "scenariosweep",
		func(i int, reg *telemetry.Registry) ScenarioPoint {
			if i == 0 {
				return runScenarioPoint(ctx, opts, 0, true, reg)
			}
			return runScenarioPoint(ctx, opts, opts.Adoptions[i-1], false, reg)
		})
}

// runScenarioPoint executes one point against its own freshly built
// world. The baseline point runs the identical experiment cadence with
// no injection and no ROV, so its signatures are directly comparable.
func runScenarioPoint(ctx context.Context, opts ScenarioSweepOptions, adoption float64, baseline bool, reg *telemetry.Registry) ScenarioPoint {
	lbl := fmt.Sprintf("%.2f", adoption)
	if baseline {
		lbl = "base"
	}
	sp := reg.StartSpan("scenariosweep:adoption=" + lbl)
	defer sp.End()
	s, x, window := newPointWorld(opts.Survey, reg)

	pt := ScenarioPoint{Adoption: adoption, Baseline: baseline}

	// The schedule is a pure function of (ecosystem, window, seed) and
	// every point builds an identical world, so all points — including
	// the baseline, which needs it only to know which router to censor
	// from the signature — agree on the attacker/leaker and timing.
	sched, err := faults.GenerateScenario(s.Eco, window, opts.Scenario, opts.ScenarioSeed)
	if err != nil {
		// Validated by the sweep entry; a generation failure here means
		// the topology cannot host the scenario at all.
		panic(fmt.Sprintf("core: scenario schedule: %v", err))
	}
	census := scenarioCensus(s.Eco, sched)

	if !baseline && adoption > 0 {
		table := rpki.FromEcosystem(s.Eco)
		pt.Deployed = rpki.Deploy(s.Eco.Net, table, s.Eco, adoption, opts.ROVSeed)
	}

	// Advance hook: the injector (baseline: plain Run) drives the
	// network, and the first advance past the mid-event instant takes
	// the census on converged-to-now state.
	measureAt := sched.Window.Start
	for _, h := range sched.Hijacks {
		measureAt = h.From + (h.To-h.From)/2
	}
	for _, l := range sched.Leaks {
		measureAt = l.From + (l.To-l.From)/2
	}
	inner := func(net *bgp.Network, to bgp.Time) { net.Run(to) }
	var inj *faults.Injector
	if !baseline {
		inj = faults.NewInjector(sched)
		inj.SetMetrics(reg)
		inner = inj.Advance
	}
	measured := false
	x.Cfg.Advance = func(net *bgp.Network, to bgp.Time) {
		inner(net, to)
		if !measured && net.Now() >= measureAt {
			measured = true
			census(&pt)
		}
	}

	result, _ := x.RunContext(ctx)
	if result == nil {
		return pt // cancelled mid-point; the sweep discards it
	}
	if inj != nil {
		inj.Finish(s.Eco.Net)
	}
	pt.EndDigest = ribDigest(s.Eco, nil)

	pt.Summary = Summarize(s.Eco, result)
	pt.Validation = Validate(s.Eco, result)
	pt.Accuracy = pt.Validation.Accuracy()

	reg.Gauge(telemetry.Label("scenario_deployed_ases", "adoption", lbl)).Set(float64(pt.Deployed))
	reg.Gauge(telemetry.Label("scenario_polluted_ases", "adoption", lbl)).Set(float64(pt.PollutedASes))
	reg.Gauge(telemetry.Label("scenario_clean_ases", "adoption", lbl)).Set(float64(pt.CleanASes))
	reg.Gauge(telemetry.Label("scenario_leak_affected_ases", "adoption", lbl)).Set(float64(pt.LeakAffectedASes))
	reg.Gauge(telemetry.Label("scenario_accuracy", "adoption", lbl)).Set(pt.Accuracy)
	return pt
}

// scenarioCensus returns the mid-window measurement for a schedule: a
// closure that fills the point's catchment counts and signature from
// the network's current state. Taken at the same virtual instant at
// every point, it is directly comparable across adoptions.
func scenarioCensus(eco *topo.Ecosystem, sched *faults.Schedule) func(*ScenarioPoint) {
	exclude := make(map[bgp.RouterID]bool)
	for _, h := range sched.Hijacks {
		exclude[h.Router] = true
	}
	return func(pt *ScenarioPoint) {
		for _, h := range sched.Hijacks {
			for _, info := range eco.ASes {
				if info.AS == h.Attacker {
					continue
				}
				r := eco.Net.Speaker(info.Router).Best(h.Prefix)
				switch {
				case r == nil:
					pt.UnreachableASes++
				case r.Path.Origin() == h.Attacker:
					pt.PollutedASes++
				default:
					pt.CleanASes++
				}
			}
		}
		for _, l := range sched.Leaks {
			for _, info := range eco.ASes {
				if info.AS == l.Leaker {
					continue
				}
				spk := eco.Net.Speaker(info.Router)
				affected := false
				for _, p := range []netutil.Prefix{eco.MeasPrefix, bgp.DefaultPrefix} {
					r := spk.Best(p)
					if r != nil && r.Path.Contains(l.Leaker) {
						pt.LeakedRoutes++
						affected = true
					}
				}
				if affected {
					pt.LeakAffectedASes++
				}
			}
		}
		pt.MidSignature = ribDigest(eco, exclude)
	}
}

// ScenarioSweepTable renders the adoption sweep report.
func ScenarioSweepTable(scenario string, points []ScenarioPoint) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Scenario sweep (%s): catchment vs ROV adoption", scenario),
		Headers: []string{"Adoption", "ROV ASes", "Polluted", "Clean", "Unreachable",
			"Leak ASes/routes", "Accuracy", "Mid==base", "End==base"},
	}
	var base *ScenarioPoint
	for i := range points {
		if points[i].Baseline {
			base = &points[i]
			break
		}
	}
	for _, pt := range points {
		lbl := fmt.Sprintf("%.2f", pt.Adoption)
		if pt.Baseline {
			lbl = "base"
		}
		mid, end := "-", "-"
		if base != nil && !pt.Baseline {
			mid = yesNo(pt.MidSignature == base.MidSignature)
			end = yesNo(pt.EndDigest == base.EndDigest)
		}
		t.AddRow(
			lbl,
			itoa(pt.Deployed),
			itoa(pt.PollutedASes),
			itoa(pt.CleanASes),
			itoa(pt.UnreachableASes),
			fmt.Sprintf("%d/%d", pt.LeakAffectedASes, pt.LeakedRoutes),
			fmt.Sprintf("%.1f%%", 100*pt.Accuracy),
			mid,
			end,
		)
	}
	return t
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
