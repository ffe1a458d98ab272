// Survey is a compact end-to-end run of the paper's method against
// the public API: build the ecosystem, find probe seeds, run both
// experiments, print the headline inference table, and score the
// inferences against the generator's installed ground truth.
//
// This is the example to start from when adapting the library to a
// different measurement design.
package main

import (
	"fmt"
	"sort"

	"repro/internal/asn"
	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	opts := core.SmallSurveyOptions()
	opts.Topology.Seed = 7

	fmt.Println("building the R&E ecosystem and selecting probe seeds...")
	s := core.NewSurvey(opts)
	fmt.Printf("  %d prefixes announced, %d responsive with up to 3 targets each\n\n",
		s.Sel.Stats.Prefixes, s.Sel.Stats.Responsive)

	fmt.Println("running the SURF (May) and Internet2 (June) experiments...")
	s.RunBoth()

	fmt.Println()
	fmt.Println(core.Summarize(s.Eco, s.Internet2).Table())

	// The payoff: how often does the data-plane inference recover the
	// policy the generator installed?
	v := core.Validate(s.Eco, s.Internet2)
	fmt.Println(v.Table())

	// And the per-AS view a researcher would consume.
	byAS := core.InferencesByAS(s.Eco, s.Internet2)
	var equal []asn.AS
	for as, inf := range byAS {
		if inf.EqualLocalPref() {
			equal = append(equal, as)
		}
	}
	sort.Slice(equal, func(i, j int) bool { return equal[i] < equal[j] })
	for i, as := range equal {
		if i == 5 {
			break
		}
		info := s.Eco.AS(as)
		fmt.Printf("AS %v (%s, %s): inferred equal localpref on R&E and commodity routes\n",
			as, info.Name, info.Region)
	}
	fmt.Printf("... %d ASes total inferred to tie-break on AS path length (%s of %d classified)\n",
		len(equal), report.Pct(len(equal), len(byAS)), len(byAS))

	// Per-prefix detail for the first switching prefix.
	for _, pr := range s.Internet2.PerPrefix {
		if pr.Inference != core.InfSwitchToRE {
			continue
		}
		pi := s.Eco.PrefixInfoFor(pr.Prefix)
		fmt.Printf("\nexample switching prefix %s (origin %v, %s class):\n  ",
			pr.Prefix, pi.Origin, pi.NeighborClass)
		for i, obs := range pr.Seq {
			fmt.Printf("%s=%s ", core.Schedule()[i].Label(), obs)
		}
		fmt.Printf("\n  switched at configuration %s\n",
			core.Schedule()[core.SwitchConfig(pr.Seq)].Label())
		break
	}
}
