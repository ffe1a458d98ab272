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
// prefix, the representative prefix is originated in the engine, run
// to quiescence, and every non-collector speaker must agree with the
// solver on whether it holds a route, on its localpref and on its path
// length. The solver models no route age, so where the engine keeps
// the older of two otherwise tied routes the solver falls through to
// router ID: those pairs agree on all three and differ in next hop.
// They are counted and bounded, not skipped; asserting them needs the
// engine to report the deciding step.
func TestEngineMatchesSolverOnEcosystem(t *testing.T) {
	for _, scale := range ecosystemScales() {
		name, eco := scale.name, topo.Build(scale.cfg)
		net := eco.Net
		net.RunToQuiescence()
		sv := net.NewStaticSolver()
		origins := studyOrigins(eco, 7)
		pairs, mismatches, ageTies := 0, 0, 0
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
					if mismatches++; mismatches <= 10 {
						t.Errorf("%s, origin AS%s, speaker %d: engine %v, solver %v", name, info.AS, id, eng, st)
					}
				case eng.From != st.From:
					ageTies++
				}
			}
			// Keep the RIBs at one study prefix: the comparison is per
			// prefix and the engine's state for one does not reach the
			// next.
			net.WithdrawOrigination(info.Router, p)
			net.RunToQuiescence()
		}
		t.Logf("%s: %d origins, %d (speaker, prefix) pairs, %d presence/localpref/length mismatches, %d age ties (%.1f%%)",
			name, len(origins), pairs, mismatches, ageTies, 100*float64(ageTies)/float64(pairs))
		if ageTies*10 >= pairs {
			t.Errorf("%s: %d of %d pairs differ in next hop only, want under 10%%", name, ageTies, pairs)
		}
	}
}
