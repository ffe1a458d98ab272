// Command reprobe runs a single active-probing round under one
// announcement configuration and writes scamper-style JSON to stdout —
// the standalone equivalent of one grey bar in Figure 3.
//
// Usage:
//
//	reprobe [-small] [-seed N] [-workers N] [-config 0-0]
//	        [-experiment internet2|surf]
//
// The shared flags (-small, -seed, -workers) behave exactly as in
// resurvey; -workers bounds the probing shard workers (0 = GOMAXPROCS)
// and the output is byte-identical for any value.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bgp"
	"repro/internal/cliconf"
	"repro/internal/core"
)

func main() {
	// reprobe historically defaults to the reduced-scale ecosystem —
	// the Config value at Register time is the flag default.
	cfg := cliconf.Config{JobOptions: core.JobOptions{Small: true, Seed: 1}}
	cliconf.Register(flag.CommandLine, &cfg, cliconf.FlagSmall|cliconf.FlagSeed|cliconf.FlagWorkers)
	configLabel := flag.String("config", "0-0", "prepend configuration (e.g. 4-0, 0-2)")
	experiment := flag.String("experiment", "internet2", "which R&E origin announces: internet2 or surf")
	flag.Parse()

	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "reprobe:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg, *configLabel, *experiment); err != nil {
		fmt.Fprintln(os.Stderr, "reprobe:", err)
		os.Exit(1)
	}
}

func run(c cliconf.Config, configLabel, experiment string) error {
	var cfg core.PrependConfig
	found := false
	for _, pc := range core.Schedule() {
		if pc.Label() == configLabel {
			cfg, found = pc, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown config %q (want one of the 4-0..0-4 schedule)", configLabel)
	}

	// The pipeline builds the same survey resurvey uses: world, probe
	// seed selection (with §3.2 coverage exclusion), prober, workers.
	s := c.Pipeline(nil).NewSurvey()
	eco, world := s.Eco, s.World

	var reOrigin bgp.RouterID
	switch experiment {
	case "internet2":
		reOrigin = eco.Internet2.Router
	case "surf":
		reOrigin = eco.MeasSURF.Router
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}

	net := eco.Net
	net.Originate(eco.MeasCommodity.Router, eco.MeasPrefix)
	net.Originate(reOrigin, eco.MeasPrefix)
	cfg.Announce(net, eco.MeasPrefix, reOrigin, eco.MeasCommodity.Router)
	net.RunToQuiescence()

	world.SetTerminals(reOrigin, eco.MeasCommodity.Router)

	round := s.Prober.Run(cfg.Label(), net.Now(), s.Sel)
	fmt.Fprintf(os.Stderr, "reprobe: %d probes in config %s (%d prefixes)\n",
		round.Len(), cfg.Label(), len(s.Sel.Prefixes))
	return s.Prober.WriteJSON(os.Stdout, round)
}
