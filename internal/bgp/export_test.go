package bgp

// SetReferenceScan makes every decision at n take the full-scan
// fallback (no no-op shortcut, no single-comparison fast path): the
// oracle the differential tests hold the engine against. Living in a
// _test.go file keeps it unreachable from anything that ships.
func (n *Network) SetReferenceScan(on bool) { n.referenceScan = on }
