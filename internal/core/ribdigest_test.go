package core

import (
	"context"
	"hash/fnv"
	"testing"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/netutil"
	"repro/internal/rpki"
	"repro/internal/topo"
)

// ribDigestProbe is the digest as it was computed before ribDigest read
// the loc-RIBs: build and sort the universe of known prefixes and
// point-query every admitted speaker's best route for each. It is kept
// verbatim as the oracle — every digest in the tree (workload reports,
// the scenario table's Mid==base / End==base columns, the benchmark's
// golden hashes) must stay bit-identical to it.
func ribDigestProbe(eco *topo.Ecosystem, exclude map[bgp.RouterID]bool) uint64 {
	prefixes := make([]netutil.Prefix, 0, len(eco.Prefixes)+len(eco.ExcludedPrefixes)+2)
	for _, pi := range eco.Prefixes {
		prefixes = append(prefixes, pi.Prefix)
	}
	for _, pi := range eco.ExcludedPrefixes {
		prefixes = append(prefixes, pi.Prefix)
	}
	prefixes = append(prefixes, eco.MeasPrefix, bgp.DefaultPrefix)
	netutil.SortPrefixes(prefixes)

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
		sp := net.Speaker(id)
		for _, p := range prefixes {
			r := sp.Best(p)
			if r == nil {
				continue
			}
			u32(uint32(id))
			u32(p.Addr())
			u32(uint32(p.Bits()))
			u32(uint32(r.From))
			u32(r.LocalPref)
			u32(uint32(len(r.Path)))
			for _, a := range r.Path {
				u32(uint32(a))
			}
		}
	}
	return h.Sum64()
}

// checkDigest requires ribDigest to agree with the probing oracle on
// the world's current state.
func checkDigest(t *testing.T, when string, eco *topo.Ecosystem, exclude map[bgp.RouterID]bool) {
	t.Helper()
	if got, want := ribDigest(eco, exclude), ribDigestProbe(eco, exclude); got != want {
		t.Fatalf("%s: ribDigest %016x, probing oracle %016x", when, got, want)
	}
}

// TestRIBDigestMatchesProbeInScenarios drives both scenario families at
// the two ends of the adoption ladder the way runScenarioPoint does and
// checks the digest against the oracle after every advance — the
// mid-window instants with the forged route or the leak live included,
// with the actor's router censored as the sweep censors it — and once
// more, uncensored, on the end state. (The workload tests check every
// named workload's end state through runNamedWorkload.)
func TestRIBDigestMatchesProbeInScenarios(t *testing.T) {
	for _, family := range faults.ScenarioNames() {
		for _, adoption := range []float64{0, 1} {
			opts := DefaultScenarioSweepOptions(family)
			s, x, window := newPointWorld(opts.Survey, nil)
			sched, err := faults.GenerateScenario(s.Eco, window, family, opts.ScenarioSeed)
			if err != nil {
				t.Fatal(err)
			}
			exclude := make(map[bgp.RouterID]bool)
			for _, h := range sched.Hijacks {
				exclude[h.Router] = true
			}
			if adoption > 0 {
				rpki.Deploy(s.Eco.Net, rpki.FromEcosystem(s.Eco), s.Eco, adoption, opts.ROVSeed)
			}
			inj := faults.NewInjector(sched)
			x.Cfg.Advance = func(net *bgp.Network, to bgp.Time) {
				inj.Advance(net, to)
				checkDigest(t, family+" mid-run", s.Eco, exclude)
			}
			if _, err := x.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			inj.Finish(s.Eco.Net)
			checkDigest(t, family+" end state", s.Eco, nil)
		}
	}
}

// TestRIBDigestMatchesProbeOnArena repeats the check on the compact
// store, whose sorted walk materializes routes instead of handing out
// the installed pointers: a converged SURF-style world, then the same
// world with an origin withdrawn.
func TestRIBDigestMatchesProbeOnArena(t *testing.T) {
	opts := SmallSurveyOptions()
	opts.Topology.CompactRIB = true
	s := NewSurvey(opts)
	if !s.Eco.Net.CompactRIB() {
		t.Fatal("world is not on the arena store")
	}
	net := s.Eco.Net
	net.Originate(s.Eco.MeasCommodity.Router, s.Eco.MeasPrefix)
	net.Originate(s.Eco.MeasSURF.Router, s.Eco.MeasPrefix)
	net.RunToQuiescence()
	checkDigest(t, "arena converged", s.Eco, nil)
	checkDigest(t, "arena converged, one router censored", s.Eco, map[bgp.RouterID]bool{s.Eco.MeasSURF.Router: true})

	net.WithdrawOrigination(s.Eco.MeasSURF.Router, s.Eco.MeasPrefix)
	net.RunToQuiescence()
	checkDigest(t, "arena after withdrawal", s.Eco, nil)
}
