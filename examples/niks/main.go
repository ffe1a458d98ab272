// Niks reproduces Figure 4 and the Table 2 case study: NIKS (AS 3267,
// a Russian R&E transit) assigns a higher localpref to GEANT than to
// NORDUnet, and gives NORDUnet the same localpref as its commodity
// provider Arelion. During the SURF experiment the measurement route
// arrives via GEANT and always wins; during the Internet2 experiment
// it arrives via NORDUnet, ties with Arelion on localpref, and AS path
// length decides — so NIKS's customers appear "Always R&E" in May and
// "Switch to R&E" in June.
package main

import (
	"fmt"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/topo"
)

func main() {
	eco := topo.Build(topo.SmallConfig())
	net := eco.Net
	meas := eco.MeasPrefix

	niks := net.Speaker(eco.NIKS.Router)
	fmt.Println("=== Figure 4: NIKS's per-neighbor localpref configuration ===")
	for _, nb := range []struct {
		name string
		id   bgp.RouterID
	}{
		{"GEANT", eco.GEANT.Router},
		{"NORDUnet", eco.NORDUnet.Router},
		{"Arelion", eco.AS(1299).Router},
	} {
		pc := niks.Peer(nb.id)
		fmt.Printf("  session to %-9s localpref %d\n", nb.name, pc.ImportLocalPref)
	}
	fmt.Println()

	describe := func(label string) {
		best := niks.Best(meas)
		if best == nil {
			fmt.Printf("%s: NIKS has no route\n", label)
			return
		}
		via := eco.ByRouter(best.From)
		fmt.Printf("%s: NIKS selects via %s — path %s (localpref %d)\n",
			label, via.Name, best.Path, best.LocalPref)
	}

	// --- SURF experiment: R&E origin 1125 behind SURF --------------
	fmt.Println("--- SURF experiment (May): origin AS 1125 via SURF ---")
	net.Originate(eco.MeasCommodity.Router, meas)
	net.Originate(eco.MeasSURF.Router, meas)
	net.RunToQuiescence()
	describe("at 0-0")
	for _, cfg := range core.Schedule() {
		cfg.Announce(net, meas, eco.MeasSURF.Router, eco.MeasCommodity.Router)
		net.RunToQuiescence()
		best := niks.Best(meas)
		via := eco.ByRouter(best.From)
		fmt.Printf("  config %s -> via %s\n", cfg.Label(), via.Name)
	}
	fmt.Println("  (GEANT's higher localpref wins at every configuration)")
	fmt.Println()

	// --- Internet2 experiment: origin 11537 ------------------------
	fmt.Println("--- Internet2 experiment (June): origin AS 11537 ---")
	net.WithdrawOrigination(eco.MeasSURF.Router, meas)
	net.Originate(eco.Internet2.Router, meas)
	net.RunToQuiescence()
	for _, cfg := range core.Schedule() {
		cfg.Announce(net, meas, eco.Internet2.Router, eco.MeasCommodity.Router)
		net.RunToQuiescence()
		best := niks.Best(meas)
		via := eco.ByRouter(best.From)
		fmt.Printf("  config %s -> via %-9s (path length %d)\n", cfg.Label(), via.Name, best.Path.Len())
	}
	fmt.Println()
	fmt.Println("GEANT never exports the Internet2-origin route to NIKS (ordinary")
	fmt.Println("peering), so NORDUnet ties with Arelion on localpref and AS path")
	fmt.Println("length decides: NIKS's customers switch from commodity to R&E as")
	fmt.Println("commodity prepends grow — the 161-prefix difference of Table 2.")
}
