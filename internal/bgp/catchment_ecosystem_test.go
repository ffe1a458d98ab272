package bgp_test

import (
	"fmt"
	"testing"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/netutil"
	"repro/internal/topo"
)

// TestCatchmentMatchesForwardPathOnEcosystem is
// TestCatchmentMatchesForwardPath on the `-small` ecosystem, on both
// stores: the measurement prefix announced June-style, then each of the
// nine prepend configurations, checked every second while the change
// propagates and again once it has converged.
func TestCatchmentMatchesForwardPathOnEcosystem(t *testing.T) {
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			cfg := topo.SmallConfig()
			cfg.CompactRIB = compact
			eco := topo.Build(cfg)
			net, meas := eco.Net, eco.MeasPrefix
			check := func(what string) {
				t.Helper()
				for _, p := range []netutil.Prefix{meas, bgp.DefaultPrefix} {
					if err := bgp.DiffCatchment(net, p); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
			}
			net.Originate(eco.MeasCommodity.Router, meas)
			net.Originate(eco.Internet2.Router, meas)
			net.RunToQuiescence()
			check("announced")
			transient := 0
			for _, pc := range core.Schedule() {
				pc.Announce(net, meas, eco.Internet2.Router, eco.MeasCommodity.Router)
				for s := 0; s < 120 && net.PendingEvents() > 0; s++ {
					check(fmt.Sprintf("config %s, second %d", pc.Label(), s))
					net.RunTo(net.Now() + 1)
					transient++
				}
				net.RunToQuiescence()
				check("config " + pc.Label())
			}
			if transient == 0 {
				t.Fatal("no configuration change left updates in flight")
			}
		})
	}
}
