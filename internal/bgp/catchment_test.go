package bgp

import (
	"fmt"
	"testing"

	"repro/internal/netutil"
)

// TestCatchmentMatchesForwardPath holds the one-fill catchment to the
// hop-by-hop walk (export_test.go) for every speaker, on both stores:
// a forwarding cycle with a speaker leading into it, the default-route
// chain, a speaker with no route, and the mid-flight MRAI/RFD state
// through its drain. TestCatchmentMatchesForwardPathOnEcosystem runs
// the same check on the generated ecosystem.
func TestCatchmentMatchesForwardPath(t *testing.T) {
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			check := func(what string, n *Network, ps ...netutil.Prefix) {
				t.Helper()
				for _, p := range ps {
					if err := DiffCatchment(n, p); err != nil {
						t.Errorf("%s: %v", what, err)
					}
				}
			}

			// Two speakers whose best routes point at each other,
			// installed by hand because no converged network holds
			// one, and a third whose walk runs into them.
			loop := NewNetwork()
			loop.SetCompactRIB(compact)
			a := loop.AddSpeaker(1, 1, "a")
			b := loop.AddSpeaker(2, 2, "b")
			lead := loop.AddSpeaker(3, 3, "lead")
			a.locRib.Install(locKey(ucsdPrefix), &Route{Prefix: ucsdPrefix, From: 2})
			b.locRib.Install(locKey(ucsdPrefix), &Route{Prefix: ucsdPrefix, From: 1})
			lead.locRib.Install(locKey(ucsdPrefix), &Route{Prefix: ucsdPrefix, From: 1})
			c := loop.Catchment(ucsdPrefix)
			for _, id := range []RouterID{1, 2, 3} {
				if term, hops, ok := c.Terminal(id); ok {
					t.Errorf("cycle: speaker %d has terminal %d in %d hops", id, term, hops)
				}
			}
			check("cycle", loop, ucsdPrefix)

			// The chain before anything is originated: no speaker
			// has a route.
			net := chainNetOn(compact)
			specific := netutil.MustParsePrefix("203.0.113.0/24")
			other := netutil.MustParsePrefix("198.51.100.0/24")
			check("no route", net, specific)
			if _, _, ok := net.Catchment(specific).Terminal(3); ok {
				t.Error("no route: the edge has a terminal")
			}

			// origin(1) announces a default and middle(2) the
			// specific: the specific ends at 2, anything else follows
			// the default to 1.
			net.Originate(1, DefaultPrefix)
			net.Originate(2, specific)
			net.RunToQuiescence()
			check("default route", net, specific, other, DefaultPrefix)
			if term, hops, ok := net.Catchment(other).Terminal(3); !ok || term != 1 || hops != 3 {
				t.Errorf("default route: edge reaches %d in %d hops (ok=%v), want 1 in 3", term, hops, ok)
			}

			// Mid-flight: updates queued, an MRAI flush pending and
			// damping state at the transit; checked at every step of
			// the drain, where transient states live.
			mid := mraiRfdNetOn(compact)
			p := driveToMidFlight(mid)
			if mid.PendingEvents() == 0 {
				t.Fatal("driveToMidFlight left nothing queued")
			}
			for step := 0; mid.PendingEvents() > 0; step++ {
				check(fmt.Sprintf("mid-flight, second %d", step), mid, p)
				mid.RunTo(mid.Now() + 1)
			}
			check("mid-flight, drained", mid, p)
		})
	}
}
