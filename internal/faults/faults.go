// Package faults is the deterministic fault-injection subsystem: a
// seeded generator that turns a single Intensity knob into a concrete
// schedule of BGP session faults (maintenance windows and flap storms),
// probe-path brownouts (correlated burst loss per AS, generalising the
// i.i.d. ProbeLossProb), and collector feed gaps — the hostile
// substrate the paper's inference had to survive (§3.2's
// Mixed/Unresponsive accounting, the outage-born Switch-to-commodity
// and Oscillating rows of Table 1) — plus an injector that drives the
// schedule through a running experiment.
//
// Determinism is the point: Generate(eco, window, Config{Seed, I})
// yields byte-identical schedules for equal inputs, so a fault-
// intensity sweep is exactly reproducible and Intensity 0 is a strict
// no-op (an empty schedule; the injector then never touches the
// network, the world, or the collector feeds).
package faults

import (
	"math/rand"
	"sort"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/netutil"
	"repro/internal/parallel"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// Config parametrizes schedule generation.
type Config struct {
	// Seed drives all random choices; equal seeds give identical
	// schedules.
	Seed int64
	// Intensity in [0, 1] scales every fault class at once: the
	// fraction of member ASes suffering session faults and brownouts,
	// the burst loss probability, and the collector gap probability.
	// 0 disables the subsystem entirely.
	Intensity float64
}

// Window bounds the experiment interval faults are injected into.
type Window struct {
	Start, End bgp.Time
}

// span returns the window length (0 for degenerate windows).
func (w Window) span() int64 {
	if w.End <= w.Start {
		return 0
	}
	return int64(w.End - w.Start)
}

// SessionFault is one BGP session event sequence: Flaps rapid down/up
// cycles (a flap storm, the RFD trigger) followed by a final outage
// from Down to Up (a maintenance window when Flaps is 0).
type SessionFault struct {
	// A, B identify the session (provider router, member router).
	A, B bgp.RouterID
	// Member is the AS whose reachability the fault degrades.
	Member asn.AS
	// Down, Up bound the final outage window.
	Down, Up bgp.Time
	// Flaps is the number of extra rapid down/up cycles immediately
	// before Down (30 s down, 30 s up each).
	Flaps int
}

// Brownout is a correlated burst-loss window over all prefixes of one
// member AS.
type Brownout struct {
	Origin   asn.AS
	Prefixes []netutil.Prefix
	From, To bgp.Time
	// Loss is the per-probe drop probability inside the window.
	Loss float64
	// Salt decorrelates this window's per-probe hash draws from other
	// windows.
	Salt uint64
}

// FeedGap is a collector archive outage: the collector keeps routing
// but its update feed records nothing during the window.
type FeedGap struct {
	Collector bgp.RouterID
	From, To  bgp.Time
}

// Schedule is a fully materialized fault plan for one experiment.
// Sessions, Brownouts, and FeedGaps come from the intensity-driven
// Generate; Hijacks and Leaks from GenerateScenario (scenario.go). A
// schedule may mix all five.
type Schedule struct {
	Window    Window
	Sessions  []SessionFault
	Brownouts []Brownout
	FeedGaps  []FeedGap
	Hijacks   []PrefixHijack
	Leaks     []RouteLeak
}

// Empty reports whether the schedule injects nothing (always true at
// Intensity 0).
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.Sessions) == 0 && len(s.Brownouts) == 0 &&
		len(s.FeedGaps) == 0 && len(s.Hijacks) == 0 && len(s.Leaks) == 0)
}

// Per-class intensity scaling. At Intensity 1, roughly one member in
// seven loses a session, one in five browns out, and most collectors
// drop part of their feed — far beyond any production failure rate, so
// the sweep's high end genuinely stresses the inference.
const (
	sessionFaultFrac = 0.15
	brownoutFrac     = 0.20
	feedGapFrac      = 0.60
	flapStormFrac    = 0.5 // of session faults; the rest are maintenance windows
)

// Generate builds the deterministic fault schedule for an ecosystem
// and experiment window. Intensity is clamped to [0, 1]; at or below 0
// the schedule is empty.
func Generate(eco *topo.Ecosystem, w Window, cfg Config) *Schedule {
	s := &Schedule{Window: w}
	intensity := cfg.Intensity
	if intensity > 1 {
		intensity = 1
	}
	if intensity <= 0 || w.span() <= 0 {
		return s
	}
	rng := rand.New(rand.NewSource(cfg.Seed)) // #nosec deterministic simulation
	span := w.span()

	// Session faults and brownouts over members, in ascending AS order
	// (eco.ASes is sorted) so the draw sequence is reproducible.
	for _, info := range eco.ASes {
		if info.Class != topo.ClassMember {
			continue
		}
		if rng.Float64() < sessionFaultFrac*intensity {
			if sf, ok := sessionFaultFor(eco, info, w, rng); ok {
				s.Sessions = append(s.Sessions, sf)
			}
		}
		if rng.Float64() < brownoutFrac*intensity && len(info.Prefixes) > 0 {
			from := w.Start + bgp.Time(rng.Int63n(span))
			dur := bgp.Time(1800 + rng.Int63n(2*3600))
			to := from + dur
			if to > w.End {
				to = w.End
			}
			s.Brownouts = append(s.Brownouts, Brownout{
				Origin:   info.AS,
				Prefixes: append([]netutil.Prefix(nil), info.Prefixes...),
				From:     from,
				To:       to,
				Loss:     0.5 + 0.5*intensity,
				Salt:     uint64(parallel.SubSeed(cfg.Seed, uint64(info.AS))),
			})
		}
	}

	// Collector feed gaps.
	for _, col := range eco.Collectors {
		if rng.Float64() >= feedGapFrac*intensity {
			continue
		}
		from := w.Start + bgp.Time(rng.Int63n(span))
		to := from + bgp.Time(3600+rng.Int63n(2*3600))
		if to > w.End {
			to = w.End
		}
		s.FeedGaps = append(s.FeedGaps, FeedGap{Collector: col, From: from, To: to})
	}
	return s
}

// sessionFaultFor picks which of the member's upstream sessions fails
// and shapes the outage.
func sessionFaultFor(eco *topo.Ecosystem, info *topo.ASInfo, w Window, rng *rand.Rand) (SessionFault, bool) {
	var upstreams []asn.AS
	upstreams = append(upstreams, info.REProviders...)
	upstreams = append(upstreams, info.CommodityProviders...)
	if len(upstreams) == 0 {
		return SessionFault{}, false
	}
	up := eco.AS(upstreams[rng.Intn(len(upstreams))])
	if up == nil {
		return SessionFault{}, false
	}
	span := w.span()
	sf := SessionFault{A: up.Router, B: info.Router, Member: info.AS}
	sf.Down = w.Start + bgp.Time(rng.Int63n(span))
	sf.Up = sf.Down + bgp.Time(1800+rng.Int63n(7200))
	if sf.Up > w.End {
		sf.Up = w.End
	}
	if rng.Float64() < flapStormFrac {
		sf.Flaps = 2 + rng.Intn(4)
	}
	return sf, true
}

// ActionKind discriminates scheduled injector actions. Session
// up/down came first; the adversarial kinds (hijack, leak) arrived
// with the scenario families and flow through the same cursor so one
// Advance loop interleaves every class deterministically.
type ActionKind uint8

// Action kinds.
const (
	// ActSessionDown / ActSessionUp toggle the session A–B.
	ActSessionDown ActionKind = iota
	ActSessionUp
	// ActHijackStart / ActHijackStop originate and withdraw the forged
	// announcement of Schedule.Hijacks[Index].
	ActHijackStart
	ActHijackStop
	// ActLeakStart / ActLeakStop widen and restore the export policy
	// of Schedule.Leaks[Index].
	ActLeakStart
	ActLeakStop
)

// Action is one scheduled state change at a virtual time. A and B
// identify the session for the session kinds; Index references the
// schedule's Hijacks or Leaks slice for the scenario kinds.
type Action struct {
	At    bgp.Time
	Kind  ActionKind
	A, B  bgp.RouterID
	Index int
}

// Actions expands the schedule into a time-sorted action list.
// Flap-storm cycles precede the main outage window: cycle i goes down
// at Down-60s*(Flaps-i) and up 30 s later, so the storm finishes just
// as the real outage begins. Hijacks and leaks contribute their
// start/stop pairs; the stable sort keeps equal-time actions in
// schedule order.
func (s *Schedule) Actions() []Action {
	var out []Action
	for _, sf := range s.Sessions {
		for i := 0; i < sf.Flaps; i++ {
			at := sf.Down - bgp.Time(60*(sf.Flaps-i))
			if at < s.Window.Start {
				at = s.Window.Start
			}
			out = append(out, Action{At: at, Kind: ActSessionDown, A: sf.A, B: sf.B})
			out = append(out, Action{At: at + 30, Kind: ActSessionUp, A: sf.A, B: sf.B})
		}
		out = append(out, Action{At: sf.Down, Kind: ActSessionDown, A: sf.A, B: sf.B})
		out = append(out, Action{At: sf.Up, Kind: ActSessionUp, A: sf.A, B: sf.B})
	}
	for i, h := range s.Hijacks {
		out = append(out, Action{At: h.From, Kind: ActHijackStart, Index: i})
		out = append(out, Action{At: h.To, Kind: ActHijackStop, Index: i})
	}
	for i, l := range s.Leaks {
		out = append(out, Action{At: l.From, Kind: ActLeakStart, Index: i})
		out = append(out, Action{At: l.To, Kind: ActLeakStop, Index: i})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Injector drives a schedule through a running experiment. It is
// single-use: create one per experiment run.
type Injector struct {
	schedule *Schedule
	actions  []Action
	next     int
	metrics  injectorMetrics
	// leakSaved holds, per leak index, the pre-leak export class sets
	// toward each provider (in RouteLeak.Providers order), captured at
	// ActLeakStart and restored at ActLeakStop.
	leakSaved map[int][]bgp.ClassSet
}

// injectorMetrics counts injected events by kind; nil counters (no
// registry) are free.
type injectorMetrics struct {
	sessionDown    *telemetry.Counter
	sessionUp      *telemetry.Counter
	brownouts      *telemetry.Counter
	feedGaps       *telemetry.Counter
	hijackAnnounce *telemetry.Counter
	hijackWithdraw *telemetry.Counter
	leakStarts     *telemetry.Counter
	leakStops      *telemetry.Counter
}

// NewInjector prepares the action cursor for a schedule.
func NewInjector(s *Schedule) *Injector {
	return &Injector{schedule: s, actions: s.Actions(), leakSaved: make(map[int][]bgp.ClassSet)}
}

// SetMetrics wires the injector to the registry; injected events are
// counted by kind under faults_injected_total. A nil registry
// disables instrumentation.
func (in *Injector) SetMetrics(r *telemetry.Registry) {
	in.metrics = injectorMetrics{
		sessionDown:    r.Counter(telemetry.Label("faults_injected_total", "kind", "session_down")),
		sessionUp:      r.Counter(telemetry.Label("faults_injected_total", "kind", "session_up")),
		brownouts:      r.Counter(telemetry.Label("faults_injected_total", "kind", "brownout")),
		feedGaps:       r.Counter(telemetry.Label("faults_injected_total", "kind", "feed_gap")),
		hijackAnnounce: r.Counter(telemetry.Label("faults_injected_total", "kind", "hijack_announce")),
		hijackWithdraw: r.Counter(telemetry.Label("faults_injected_total", "kind", "hijack_withdraw")),
		leakStarts:     r.Counter(telemetry.Label("faults_injected_total", "kind", "leak_start")),
		leakStops:      r.Counter(telemetry.Label("faults_injected_total", "kind", "leak_stop")),
	}
}

// Install arms the data-plane and collector fault classes: brownout
// windows on the world and the feed-gap filter on the network. Session
// faults are applied incrementally by Advance. With an empty schedule
// Install changes nothing.
func (in *Injector) Install(w *simnet.World, net *bgp.Network) {
	for _, b := range in.schedule.Brownouts {
		w.AddBrownout(b.Prefixes, b.From, b.To, b.Loss, b.Salt)
		in.metrics.brownouts.Inc()
	}
	in.metrics.feedGaps.Add(int64(len(in.schedule.FeedGaps)))
	if len(in.schedule.FeedGaps) > 0 {
		gaps := in.schedule.FeedGaps
		net.CollectorFeedDown = func(col bgp.RouterID, at bgp.Time) bool {
			for _, g := range gaps {
				if g.Collector == col && at >= g.From && at < g.To {
					return true
				}
			}
			return false
		}
	}
}

// Uninstall removes the brownouts and the feed-gap filter, so the next
// experiment on the same world starts clean.
func (in *Injector) Uninstall(w *simnet.World, net *bgp.Network) {
	w.ClearBrownouts()
	net.CollectorFeedDown = nil
}

// Advance applies every session action due at or before `to`, running
// the network up to each action time first, then drains the network to
// `to`. With no pending actions it is exactly net.Run(to).
func (in *Injector) Advance(net *bgp.Network, to bgp.Time) {
	for in.next < len(in.actions) && in.actions[in.next].At <= to {
		a := in.actions[in.next]
		in.next++
		net.RunTo(a.At)
		in.apply(net, a)
	}
	net.Run(to)
}

// apply executes one action against the network.
func (in *Injector) apply(net *bgp.Network, a Action) {
	switch a.Kind {
	case ActSessionDown:
		in.metrics.sessionDown.Inc()
		net.SetSessionDown(a.A, a.B)
	case ActSessionUp:
		in.metrics.sessionUp.Inc()
		net.SetSessionUp(a.A, a.B)
	case ActHijackStart:
		h := in.schedule.Hijacks[a.Index]
		in.metrics.hijackAnnounce.Inc()
		net.Originate(h.Router, h.Prefix)
	case ActHijackStop:
		h := in.schedule.Hijacks[a.Index]
		in.metrics.hijackWithdraw.Inc()
		net.WithdrawOrigination(h.Router, h.Prefix)
	case ActLeakStart:
		l := in.schedule.Leaks[a.Index]
		in.metrics.leakStarts.Inc()
		saved := make([]bgp.ClassSet, len(l.Providers))
		for i, pr := range l.Providers {
			saved[i] = net.SetExportAllow(l.Router, pr, leakExportSet)
		}
		in.leakSaved[a.Index] = saved
	case ActLeakStop:
		l := in.schedule.Leaks[a.Index]
		in.metrics.leakStops.Inc()
		saved := in.leakSaved[a.Index]
		for i, pr := range l.Providers {
			if i < len(saved) {
				net.SetExportAllow(l.Router, pr, saved[i])
			}
		}
		delete(in.leakSaved, a.Index)
	}
}

// Finish applies any remaining actions (restoring sessions whose Up
// falls past the probed window) and drains the network, leaving it
// healthy for a subsequent experiment.
func (in *Injector) Finish(net *bgp.Network) {
	in.Advance(net, bgp.MaxTime)
	net.RunToQuiescence()
}
