package core

// Workload runs: the virtual-clock event engine (internal/vtime)
// driving the survey's BGP network with generated or replayed event
// schedules (internal/workload), instead of the fixed experiment
// script RunBoth executes. The workload path is where timer fidelity
// matters: RFD penalty decay and reuse checks fire at their real
// virtual timestamps, so flap cascades exercise suppression exactly as
// RFC 2439 specifies, while RoundMode quantizes the same schedule to
// round boundaries to reproduce (and measure against) the historical
// round-granularity behaviour. MRAI flushes would fire the same way,
// but no generated topology or workload sets PeerConfig.MRAI.
//
// Determinism: every generator draws from its own
// parallel.SubSeed(seed, stream) RNG (streams below), events schedule
// through the stable (time, sequence) heap, and probing reuses the
// survey's deterministic prober — so a named workload's result is a
// pure function of (name, seed, duration) at any -workers width.

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/bgp"
	"repro/internal/netutil"
	"repro/internal/parallel"
	"repro/internal/rpki"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// Workload generator stream ids, following the
// parallel.SubSeed(sessionSeed, stream) convention documented in
// package parallel. Each generator owns two streams (arrival process
// and target picker / hold process) so schedules stay independent.
const (
	wlStreamPrefixPick uint64 = 0x3A00 + iota
	wlStreamPrefixArrive
	wlStreamPrefixHold
	wlStreamSessionPick
	wlStreamSessionArrive
	wlStreamSessionHold
	wlStreamChurnPick
	wlStreamChurnArrive
	wlStreamProbeArrive
	wlStreamThin
	wlStreamThinSession
	wlStreamHijackPick
	wlStreamHijackArrive
	wlStreamHijackHold
)

// DefaultRoundGap is the round granularity RoundMode quantizes to:
// the probe-round cadence the historical loop stepped the network at.
const DefaultRoundGap vtime.Time = 60

// onRound rounds t up to the next DefaultRoundGap boundary when round
// is set, and returns it as is otherwise. RoundMode applies it to every
// dispatch time and to the run's horizon, so all activity lands on
// round boundaries: the granularity the survey's historical round loop
// ran at. Between boundaries nothing fires; RFD penalties observe flap
// bursts as simultaneous, and the measured
// contrast against event mode (see EXPERIMENTS.md) is the point of
// keeping it.
func onRound(t vtime.Time, round bool) vtime.Time {
	if !round {
		return t
	}
	return (t + DefaultRoundGap - 1) / DefaultRoundGap * DefaultRoundGap
}

// WorkloadOptions selects and sizes one workload run.
type WorkloadOptions struct {
	// Name picks a named workload (see WorkloadNames) or "replay".
	Name string
	// Duration is the virtual horizon in seconds; 0 uses the named
	// workload's default.
	Duration vtime.Time
	// RoundMode quantizes every event (and the BGP timers it implies)
	// to DefaultRoundGap boundaries (onRound) — the round-granularity
	// compatibility mode.
	RoundMode bool
	// Trace is the MRT update stream for the "replay" workload.
	Trace io.Reader
}

// WorkloadNames lists the named schedules, in display order.
func WorkloadNames() []string {
	return []string{"update-storm", "flap-cascade-rfd", "diurnal-churn", "hijack-flash", "replay"}
}

// KnownWorkload reports whether name is runnable.
func KnownWorkload(name string) bool {
	for _, n := range WorkloadNames() {
		if n == name {
			return true
		}
	}
	return false
}

func defaultWorkloadDuration(name string) vtime.Time {
	switch name {
	case "update-storm":
		return 1800
	case "flap-cascade-rfd":
		return 7200
	case "diurnal-churn":
		return 86400
	case "hijack-flash":
		return 3600
	case "replay":
		return 86400
	}
	return 0
}

// WorkloadResult summarizes one workload run. All fields are
// deterministic for a given (name, seed, duration); SpeedupRatio is
// the only wall-clock-derived value and is excluded from manifests.
type WorkloadResult struct {
	Name      string
	Duration  vtime.Time
	RoundMode bool

	// EventsByKind counts applied workload events per kind name.
	EventsByKind map[string]int64
	// Scheduled / Dispatched are the engine's event totals.
	Scheduled  int64
	Dispatched int64
	// BGPEvents is the BGP message/timer events the network processed.
	BGPEvents int
	// Update/RFD counters from the BGP engine over the run.
	UpdatesDelivered int64
	RFDPenalties     int64
	RFDSuppressions  int64
	// Probe round totals.
	ProbeRounds     int
	ProbesSent      int
	ProbesResponded int
	// RIBDigest is an FNV-64a digest of every speaker's best route
	// for every known prefix at the end of the window — the
	// byte-equality anchor for the workers matrix.
	RIBDigest uint64
	// Replay bookkeeping (zero for generated workloads).
	ReplaySkipped int
	ReplayClamped int

	// SpeedupRatio is virtual/wall seconds; wall-clock derived, so
	// callers must exclude it from deterministic output.
	SpeedupRatio float64
}

// RunWorkload builds the pipeline's survey, converges it, and drives
// the named workload through the virtual-clock engine. When the
// pipeline has no registry a private one is created so the BGP and
// engine counters in the result are always populated.
func (p *Pipeline) RunWorkload(opts WorkloadOptions) (*WorkloadResult, error) {
	if !KnownWorkload(opts.Name) {
		return nil, fmt.Errorf("core: unknown workload %q (have %v)", opts.Name, WorkloadNames())
	}
	return p.runWorkload(p.NewSurvey(), opts)
}

// runWorkload is RunWorkload on a survey the caller built from this
// pipeline and keeps: the tests check the result against the world it
// was read from.
func (p *Pipeline) runWorkload(s *Survey, opts WorkloadOptions) (*WorkloadResult, error) {
	d := opts.Duration
	if d <= 0 {
		d = defaultWorkloadDuration(opts.Name)
	}

	reg := p.metrics
	if reg == nil {
		reg = telemetry.New()
		s.SetMetrics(reg)
	}
	net := s.Eco.Net
	// Announce the measurement prefix SURF-style (both origins, no
	// prepends) so KindProbe rounds have a live dual-homed target, and
	// register the terminals the probe responses classify against.
	net.Originate(s.Eco.MeasCommodity.Router, s.Eco.MeasPrefix)
	net.Originate(s.Eco.MeasSURF.Router, s.Eco.MeasPrefix)
	s.World.SetTerminals(s.Eco.MeasSURF.Router, s.Eco.MeasCommodity.Router)
	// ROV deployment precedes every workload event: the seeded
	// fraction of ASes filters RPKI-invalid routes on import for the
	// whole run (hijack-flash forgeries die at deployed borders; every
	// legitimate route is covered by a ROA and unaffected).
	if p.job.ROV > 0 {
		table := rpki.FromEcosystem(s.Eco)
		deployed := rpki.Deploy(net, table, s.Eco, p.job.ROV, parallel.SubSeed(p.Seed(), rovSeedStream))
		reg.Gauge("workload_rov_deployed_ases").Set(float64(deployed))
	}
	net.RunToQuiescence()

	bgpEvents0 := net.EventsProcessed()
	updates0 := reg.Counter("bgp_updates_delivered_total").Value()
	penalties0 := reg.Counter("bgp_rfd_penalties_total").Value()
	suppressions0 := reg.Counter("bgp_rfd_suppressions_total").Value()

	start := vtime.Time(net.Now())
	eng := vtime.NewEngine(start)
	eng.SetMetrics(reg)
	eng.Coupling = func(to vtime.Time) { net.Run(bgp.Time(to)) }

	gen, err := p.buildWorkload(s.Eco, opts, d)
	if err != nil {
		return nil, err
	}

	res := &WorkloadResult{
		Name: opts.Name, Duration: d, RoundMode: opts.RoundMode,
		EventsByKind: make(map[string]int64),
	}
	probeN := 0
	apply := func(ev workload.Event) vtime.Handler {
		return func(now vtime.Time) {
			// Coupling has already run the BGP network to now, so the
			// action lands on converged-to-now state.
			switch ev.Kind {
			case workload.KindSessionDown:
				net.SetSessionDown(ev.A, ev.B)
			case workload.KindSessionUp:
				net.SetSessionUp(ev.A, ev.B)
			case workload.KindAnnounce:
				net.Originate(ev.Router, ev.Prefix)
			case workload.KindWithdraw:
				net.WithdrawOrigination(ev.Router, ev.Prefix)
			case workload.KindPrepend:
				net.SetPrefixPrepend(ev.Router, ev.Neighbor, ev.Prefix, ev.Prepends)
			case workload.KindProbe:
				label := fmt.Sprintf("%s-%04d", opts.Name, probeN)
				probeN++
				round := s.Prober.Run(label, bgp.Time(now), s.Sel)
				res.ProbeRounds++
				res.ProbesSent += round.Len()
				res.ProbesResponded += round.Responded()
			}
			res.EventsByKind[ev.Kind.String()]++
		}
	}
	// Schedule the full horizon upfront: the queue-depth histogram
	// then reflects real backlog, and generator exhaustion cannot
	// depend on dispatch interleaving.
	for {
		ev, ok := gen.Next()
		if !ok {
			break
		}
		eng.At(onRound(start+ev.At, opts.RoundMode), apply(ev))
	}
	if rp, ok := gen.(*workload.Replay); ok {
		if err := rp.Err(); err != nil {
			return nil, fmt.Errorf("core: replay trace: %w", err)
		}
		res.ReplaySkipped = rp.Skipped()
		res.ReplayClamped = rp.Clamped()
	}

	// A horizon that ends mid-round still runs that round's events.
	eng.RunUntil(onRound(start+d, opts.RoundMode))

	res.Scheduled = reg.Counter("vtime_events_scheduled_total").Value()
	res.Dispatched = eng.Dispatched()
	res.BGPEvents = net.EventsProcessed() - bgpEvents0
	res.UpdatesDelivered = reg.Counter("bgp_updates_delivered_total").Value() - updates0
	res.RFDPenalties = reg.Counter("bgp_rfd_penalties_total").Value() - penalties0
	res.RFDSuppressions = reg.Counter("bgp_rfd_suppressions_total").Value() - suppressions0
	res.RIBDigest = ribDigest(s.Eco, nil)
	res.SpeedupRatio = eng.SpeedupRatio()
	return res, nil
}

// buildWorkload assembles the named generator set from the ecosystem.
// Event times are relative to the workload start (the caller offsets
// them); horizon bounds every schedule.
func (p *Pipeline) buildWorkload(eco *topo.Ecosystem, opts WorkloadOptions, horizon vtime.Time) (workload.Generator, error) {
	seed := p.Seed()

	// Flappable originations: the study prefixes, at their origin
	// routers (canonical eco.Prefixes order keeps selection stable).
	origins := make([]workload.Origin, 0, len(eco.Prefixes))
	originByPrefix := make(map[netutil.Prefix]bgp.RouterID, len(eco.Prefixes))
	for _, pi := range eco.Prefixes {
		info := eco.AS(pi.Origin)
		if info == nil {
			continue
		}
		origins = append(origins, workload.Origin{Router: info.Router, Prefix: pi.Prefix})
		originByPrefix[pi.Prefix] = info.Router
	}

	// Flappable sessions and re-prepend targets: member edges toward
	// their providers, in ascending AS order.
	var sessions []workload.Session
	var prepends []workload.PrependTarget
	for _, info := range eco.ASes {
		if info.Class != topo.ClassMember {
			continue
		}
		for _, prov := range info.REProviders {
			if pi := eco.AS(prov); pi != nil {
				sessions = append(sessions, workload.Session{A: info.Router, B: pi.Router})
				if len(info.Prefixes) > 0 {
					prepends = append(prepends, workload.PrependTarget{
						Router: info.Router, Neighbor: pi.Router, Prefix: info.Prefixes[0],
					})
				}
			}
		}
		for _, prov := range info.CommodityProviders {
			if pi := eco.AS(prov); pi != nil {
				sessions = append(sessions, workload.Session{A: info.Router, B: pi.Router})
			}
		}
	}
	if len(origins) == 0 || len(sessions) == 0 {
		return nil, fmt.Errorf("core: ecosystem has no flappable origins or sessions")
	}

	switch opts.Name {
	case "update-storm":
		// Dense announce/withdraw churn across the whole study set,
		// with config deltas riding along and probe rounds sampling
		// reachability every 5 minutes.
		return workload.Merge(opts.Name,
			workload.NewPrefixFlapper(seed, wlStreamPrefixPick, origins,
				workload.NewPoisson(seed, wlStreamPrefixArrive, 1.0),
				workload.NewWeibull(seed, wlStreamPrefixHold, 0.8, 30), horizon),
			workload.NewConfigChurn(seed, wlStreamChurnPick, prepends, 3,
				workload.NewPoisson(seed, wlStreamChurnArrive, 0.1), horizon),
			workload.NewProbeTicker(workload.NewPeriodic(seed, wlStreamProbeArrive, 300, 0), horizon),
		), nil

	case "flap-cascade-rfd":
		// A small prefix set flapping every ~40s per prefix: RFD
		// importers cross the cutoff threshold within minutes and the
		// suppression / reuse cycle plays out at real timestamps.
		hot := origins
		if len(hot) > 8 {
			hot = hot[:8]
		}
		return workload.Merge(opts.Name,
			workload.NewPrefixFlapper(seed, wlStreamPrefixPick, hot,
				workload.NewPoisson(seed, wlStreamPrefixArrive, 0.2),
				workload.NewPeriodic(seed, wlStreamPrefixHold, 45, 15), horizon),
			workload.NewSessionFlapper(seed, wlStreamSessionPick, sessions,
				workload.NewPoisson(seed, wlStreamSessionArrive, 0.01),
				workload.NewWeibull(seed, wlStreamSessionHold, 0.9, 120), horizon),
			workload.NewProbeTicker(workload.NewPeriodic(seed, wlStreamProbeArrive, 600, 0), horizon),
		), nil

	case "diurnal-churn":
		// Background churn modulated by a 24h sinusoid (Lewis-Shedler
		// thinning), probed hourly.
		return workload.Merge(opts.Name,
			workload.NewPrefixFlapper(seed, wlStreamPrefixPick, origins,
				workload.NewThinned(seed, wlStreamThin,
					workload.NewPoisson(seed, wlStreamPrefixArrive, 0.05), workload.Diurnal(0.15)),
				workload.NewWeibull(seed, wlStreamPrefixHold, 0.7, 300), horizon),
			workload.NewSessionFlapper(seed, wlStreamSessionPick, sessions,
				workload.NewThinned(seed, wlStreamThinSession,
					workload.NewPoisson(seed, wlStreamSessionArrive, 0.005), workload.Diurnal(0.15)),
				workload.NewWeibull(seed, wlStreamSessionHold, 0.9, 600), horizon),
			workload.NewProbeTicker(workload.NewPeriodic(seed, wlStreamProbeArrive, 3600, 0), horizon),
		), nil

	case "hijack-flash":
		// Repeated short-lived forged-origin announcements of the
		// measurement prefix from member ASes, probed every 5 minutes.
		// Under -rov the deployed fraction filters the forgeries on
		// import, so the flash's catchment shrinks with adoption.
		var attackers []bgp.RouterID
		for _, info := range eco.ASes {
			if info.Class == topo.ClassMember {
				attackers = append(attackers, info.Router)
			}
		}
		if len(attackers) == 0 {
			return nil, fmt.Errorf("core: ecosystem has no member AS to hijack from")
		}
		return workload.Merge(opts.Name,
			workload.NewHijackFlasher(seed, wlStreamHijackPick, attackers, eco.MeasPrefix,
				workload.NewPoisson(seed, wlStreamHijackArrive, 1.0/300),
				workload.NewWeibull(seed, wlStreamHijackHold, 0.9, 120), horizon),
			workload.NewProbeTicker(workload.NewPeriodic(seed, wlStreamProbeArrive, 300, 0), horizon),
		), nil

	case "replay":
		if opts.Trace == nil {
			return nil, fmt.Errorf("core: replay workload requires a trace stream")
		}
		return workload.NewReplay(opts.Trace, originByPrefix, 0, horizon), nil
	}
	return nil, fmt.Errorf("core: unknown workload %q", opts.Name)
}

// ribDigest hashes every speaker's loc-RIB (speakers in network order,
// each RIB in prefix order) — a compact stand-in for full RIB byte
// equality. The speakers in exclude (nil: nobody) are left out, which
// is how the scenario sweep censors the injected actor's own router
// from its signature.
//
// The digest reads what the RIBs hold rather than probing them with a
// prefix list, and hashes exactly what such a probe over the known
// prefixes would: a loc-RIB only ever holds prefixes from
// eco.Prefixes ∪ eco.ExcludedPrefixes ∪ {eco.MeasPrefix, 0/0}. Every
// origination the tree makes (the generator's default routes, the
// experiments', workloads' and hijacks' measurement prefix, the storm
// generators' study prefixes, a replayed trace filtered to known
// prefixes) is drawn from that set, and a leak re-exports only what it
// learned.
func ribDigest(eco *topo.Ecosystem, exclude map[bgp.RouterID]bool) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u32 := func(v uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		h.Write(buf[:4])
	}
	net := eco.Net
	for _, id := range net.Speakers() {
		if exclude[id] {
			continue
		}
		net.Speaker(id).WalkBest(func(r *bgp.Route) bool {
			u32(uint32(id))
			u32(r.Prefix.Addr())
			u32(uint32(r.Prefix.Bits()))
			u32(uint32(r.From))
			u32(r.LocalPref)
			u32(uint32(len(r.Path)))
			for _, a := range r.Path {
				u32(uint32(a))
			}
			return true
		})
	}
	return h.Sum64()
}

// WriteWorkloadReport renders the deterministic portion of a result
// as the stable text block the CLI prints and the width tests compare.
func WriteWorkloadReport(w io.Writer, res *WorkloadResult) {
	mode := "event"
	if res.RoundMode {
		mode = "round"
	}
	fmt.Fprintf(w, "workload %s: %ds virtual, %s engine\n", res.Name, res.Duration, mode)
	kinds := make([]string, 0, len(res.EventsByKind))
	for k := range res.EventsByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-14s %d\n", k, res.EventsByKind[k])
	}
	fmt.Fprintf(w, "  engine: %d scheduled, %d dispatched, %d bgp events\n",
		res.Scheduled, res.Dispatched, res.BGPEvents)
	fmt.Fprintf(w, "  bgp: %d updates delivered, %d rfd penalties, %d rfd suppressions\n",
		res.UpdatesDelivered, res.RFDPenalties, res.RFDSuppressions)
	fmt.Fprintf(w, "  probes: %d rounds, %d sent, %d responded\n",
		res.ProbeRounds, res.ProbesSent, res.ProbesResponded)
	if res.Name == "replay" {
		fmt.Fprintf(w, "  replay: %d skipped, %d clamped\n", res.ReplaySkipped, res.ReplayClamped)
	}
	fmt.Fprintf(w, "  rib digest: %016x\n", res.RIBDigest)
}
