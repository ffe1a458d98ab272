package bgp

import "repro/internal/netutil"

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
