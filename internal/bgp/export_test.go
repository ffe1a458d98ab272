package bgp

import (
	"fmt"

	"repro/internal/netutil"
)

// SetReferenceScan makes every decision at n take the full-scan
// fallback (no no-op shortcut, no single-comparison fast path): the
// oracle the differential tests hold the engine against. Living in a
// _test.go file keeps it unreachable from anything that ships.
func (n *Network) SetReferenceScan(on bool) { n.referenceScan = on }

// DiffSolverReference is the solver-vs-reference differential of
// static_reference_test.go, for the external-package tests that run it
// on generated ecosystems (internal/topo imports this package).
func DiffSolverReference(n *Network, sv *StaticSolver, p netutil.Prefix, origins []StaticOrigin) error {
	return diffSolverReference(n, sv, p, origins)
}

// AdvanceTo moves the clock to t without delivering what is due. Tests
// use it to build states whose queue lags the clock on purpose (the
// fuzz corpora and the mid-flight snapshot goldens); production code
// moves time with RunTo.
func (n *Network) AdvanceTo(t Time) {
	if t > n.clock {
		n.clock = t
	}
}

// ForwardPath walks AS-level forwarding from speaker id toward prefix
// p hop by hop, returning the sequence of router IDs ending at the
// originating speaker. ok is false on a routing loop or a missing
// route, and path is then only how far the walk got. It is the oracle
// Catchment is held to.
func (n *Network) ForwardPath(id RouterID, p netutil.Prefix) ([]RouterID, bool) {
	return n.forwardPath(id, p, n.NextHop)
}

// ForwardPathLPM is ForwardPath with per-hop default-route fallback:
// the walk Catchment records for every speaker at once.
func (n *Network) ForwardPathLPM(id RouterID, p netutil.Prefix) ([]RouterID, bool) {
	return n.forwardPath(id, p, n.NextHopLPM)
}

func (n *Network) forwardPath(id RouterID, p netutil.Prefix, hop func(RouterID, netutil.Prefix) (RouterID, bool)) ([]RouterID, bool) {
	var path []RouterID
	cur := id
	for {
		path = append(path, cur)
		next, ok := hop(cur, p)
		// Only speakers forward, so a walk that has taken more hops
		// than there are speakers has revisited one: a forwarding loop.
		if !ok || len(path) > len(n.speakers) {
			return path, false
		}
		if next == cur {
			return path, true
		}
		cur = next
	}
}

// DiffCatchment holds n.Catchment(p) to ForwardPathLPM for every
// speaker: the same terminal and hop count (len(path)), or no terminal
// on both sides. It also checks that a RouterID past the last speaker
// has none.
func DiffCatchment(n *Network, p netutil.Prefix) error {
	c := n.Catchment(p)
	for _, id := range n.order {
		term, hops, ok := c.Terminal(id)
		path, walked := n.ForwardPathLPM(id, p)
		switch {
		case ok != walked:
			return fmt.Errorf("%s, speaker %d: catchment ok=%v (terminal %d, %d hops), walk ok=%v (%v)", p, id, ok, term, hops, walked, path)
		case ok && (term != path[len(path)-1] || hops != len(path)):
			return fmt.Errorf("%s, speaker %d: catchment terminal %d in %d hops, walk %v", p, id, term, hops, path)
		}
	}
	past := RouterID(1)
	if k := len(n.order); k > 0 {
		past = n.order[k-1] + 1
	}
	if term, hops, ok := c.Terminal(past); ok {
		return fmt.Errorf("%s, router %d is no speaker and has terminal %d in %d hops", p, past, term, hops)
	}
	return nil
}
