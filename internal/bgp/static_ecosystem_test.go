package bgp_test

// The solver's differentials at the scales the product runs: against
// the reference oracle on every origin, and the event engine against
// the solver on a fixed sample of origins.

import (
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/topo"
)

// ecosystemScales are the two generated worlds the product's own
// commands and the benchmark's survey_paper run: `-small`, and the
// paper's grammar with its populations divided by four.
func ecosystemScales() []ecosystemScale {
	quarter := topo.DefaultConfig()
	quarter.MembersUS /= 4
	quarter.MembersIntl /= 4
	quarter.NIKSCustomers /= 4
	quarter.ExtraCollectorFeeds /= 4
	return []ecosystemScale{{"small", topo.SmallConfig()}, {"paper÷4", quarter}}
}

type ecosystemScale struct {
	name string
	cfg  topo.GenConfig
}

// studyOrigins returns the origin of every stride-th study prefix,
// each once, in prefix order. Stride 1 is every origin: the solves
// core.ComputeOriginViews makes.
func studyOrigins(eco *topo.Ecosystem, stride int) []*topo.ASInfo {
	var out []*topo.ASInfo
	seen := make(map[asn.AS]bool)
	for i := 0; i < len(eco.Prefixes); i += stride {
		if o := eco.Prefixes[i].Origin; !seen[o] {
			seen[o] = true
			out = append(out, eco.AS(o))
		}
	}
	return out
}

func TestSolverMatchesReferenceOnEcosystem(t *testing.T) {
	for _, scale := range ecosystemScales() {
		name, eco := scale.name, topo.Build(scale.cfg)
		sv := eco.Net.NewStaticSolver()
		origins := studyOrigins(eco, 1)
		for _, info := range origins {
			if err := bgp.DiffSolverReference(eco.Net, sv, info.Prefixes[0], []bgp.StaticOrigin{{Speaker: info.Router}}); err != nil {
				t.Fatalf("%s, origin AS%s: %v", name, info.AS, err)
			}
		}
		// The default route has more than one origin.
		two := []bgp.StaticOrigin{{Speaker: eco.Lumen.Router}, {Speaker: eco.Arelion.Router}}
		if err := bgp.DiffSolverReference(eco.Net, sv, bgp.DefaultPrefix, two); err != nil {
			t.Fatalf("%s, default route: %v", name, err)
		}
		t.Logf("%s: %d origins and the two-origin default route equal to the reference", name, len(origins))
	}
}

// TestEngineMatchesSolverOnEcosystem pins the event engine to the
// solver on the generated ecosystem: for the origin of every 7th study
// prefix, the representative prefix is originated in the engine and run
// to quiescence, and every non-collector speaker is held to the solver.
// Both must agree on whether the speaker holds a route, on its
// localpref and on its path length. Beyond that, every difference is
// accounted for by the step that makes it:
//   - a different next hop is the engine keeping the older of two
//     routes the solver, which models no age, separates by router ID:
//     the engine's best beats its own copy of the solver's choice by
//     ByAge;
//   - the same next hop with a different path is inherited: the next
//     hop's own engine and solver paths differ;
//   - every other pair has the same full path.
func TestEngineMatchesSolverOnEcosystem(t *testing.T) {
	for _, scale := range ecosystemScales() {
		name, eco := scale.name, topo.Build(scale.cfg)
		net := eco.Net
		net.RunToQuiescence()
		sv := net.NewStaticSolver()
		origins := studyOrigins(eco, 7)
		pairs, failures, ageTies, inherited := 0, 0, 0, 0
		fail := func(format string, args ...any) {
			if failures++; failures <= 10 {
				t.Errorf(name+", "+format, args...)
			}
		}
		for _, info := range origins {
			p := info.Prefixes[0]
			res := sv.Solve(p, []bgp.StaticOrigin{{Speaker: info.Router}})
			if !res.Converged {
				t.Fatalf("%s, origin AS%s: solver did not converge", name, info.AS)
			}
			net.Originate(info.Router, p)
			net.RunToQuiescence()
			for _, id := range net.Speakers() {
				s := net.Speaker(id)
				if s.Collector {
					continue
				}
				pairs++
				eng, st := s.Best(p), res.Best(id)
				switch {
				case eng == nil && st == nil:
				case eng == nil || st == nil,
					eng.LocalPref != st.LocalPref,
					eng.Path.Len() != st.Path.Len():
					fail("origin AS%s, speaker %d: engine %v, solver %v", info.AS, id, eng, st)
				case eng.From != st.From:
					ageTies++
					in := s.AdjIn(p, st.From)
					if in == nil {
						fail("origin AS%s, speaker %d: the engine holds nothing from the solver's next hop %d", info.AS, id, st.From)
					} else if c, step := bgp.Compare(eng, in); c >= 0 || step != bgp.ByAge {
						fail("origin AS%s, speaker %d: engine best %v beats the solver's choice %v by %d,%v, want ByAge", info.AS, id, eng, in, c, step)
					}
				case !eng.Path.Equal(st.Path):
					inherited++
					nhEng, nhSt := net.Speaker(eng.From).Best(p), res.Best(eng.From)
					if nhEng == nil || nhSt == nil || nhEng.Path.Equal(nhSt.Path) {
						fail("origin AS%s, speaker %d: path %v, solver %v, not inherited from next hop %d (engine %v, solver %v)", info.AS, id, eng.Path, st.Path, eng.From, nhEng, nhSt)
					}
				}
			}
			// Keep the RIBs at one study prefix: the comparison is per
			// prefix and the engine's state for one does not reach the
			// next.
			net.WithdrawOrigination(info.Router, p)
			net.RunToQuiescence()
		}
		t.Logf("%s: %d origins, %d (speaker, prefix) pairs: %d next hops decided by age (%.1f%%), %d inherited path differences, %d unaccounted",
			name, len(origins), pairs, ageTies, 100*float64(ageTies)/float64(pairs), inherited, failures)
	}
}
