package bgp

// The decision path. The experiments perturb exactly one attribute of
// one prefix's announcements per configuration step, so every event the
// engine serves is a single-candidate change:
//
//   - Config setters (SetExportPrepend, SetPrefixPrepend) and session
//     flaps feed a per-router dirty-set keyed by (prefix, neighbor);
//     a work-queue drain re-exports only dirty pairs, and the adj-out
//     comparison in sendExport enqueues neighbors only when the
//     announcement actually changed.
//   - Deliveries run an O(1) single-candidate decision update instead
//     of a full scan whenever the fast path is provably equivalent,
//     falling back to a full scan (Speaker.runDecision) otherwise.
//
// Equivalence contract: the network produces byte-identical observable
// output — the same messages at the same virtual times, the same churn
// records, the same RIBs — as one that full-scans at every decision.
// The tests hold the engine to that with a reference that always takes
// the fallback (Network.referenceScan, set only from export_test.go).
// Only the work-accounting counters (bgp_decision_full_scans,
// bgp_inc_*) may differ from the reference; bgp_decision_runs_total and
// bgp_best_path_changes_total are kept 1:1 by construction.
//
// Fast-path soundness. Without MED the decision process is a strict
// total order over candidates with distinct From (Compare returns 0
// only for equal From), so a single-candidate change resolves with one
// comparison against the incumbent best unless the best itself
// degraded or was removed. MED breaks transitivity (see
// TestCompareTransitiveWithoutMED), so the fast path is gated on a
// sticky per-(speaker, prefix) medSeen flag: once any nonzero-MED
// route is seen for a prefix, that prefix full-scans forever.
//
// One pointer subtlety: the loc-RIB may hold a stale-but-semantically-
// equal pointer for the origination slot (runDecision keeps the old
// route on a routesEqual re-announcement), so slot identity uses
// Route.From, never pointer comparison. The stale copy can differ only
// in LearnedAt, and ByAge can never decide between an origination and
// an import (ByEBGP always separates them first) nor between two
// imports with stale ages (duplicate announcements are dropped before
// install), so comparing against the stale pointer is exact.

import (
	"repro/internal/netutil"
)

// IncStats counts decision-process work. The plain fields are always
// maintained (telemetry on or off) so benchmarks and the equivalence
// tests can meter work without a registry.
type IncStats struct {
	// DecisionRuns counts decision-process invocations; identical in
	// the engine and the full-scan reference by construction.
	DecisionRuns int64
	// BestChanges counts loc-RIB changes; identical in both.
	BestChanges int64
	// FullScans counts full best-path scans over the candidate set —
	// the "decision-process evaluations" the fast path exists to
	// avoid. The reference scans on every run.
	FullScans int64
	// FastPath counts single-comparison decisions.
	FastPath int64
	// NoopDecisions counts runs whose effective candidate was
	// semantically unchanged, skipping even the one comparison.
	NoopDecisions int64
	// DirtyPairs counts distinct (router, prefix, neighbor) pairs
	// enqueued by config setters and session flaps.
	DirtyPairs int64
	// DirtyEvals counts dirty-pair export evaluations drained from the
	// work queue.
	DirtyEvals int64
	// SuppressedProps counts drained dirty pairs whose export was
	// unchanged, so no update (or timer) was enqueued — propagation
	// suppressed at the source.
	SuppressedProps int64
}

// dirtyKey identifies one pending re-export: router s toward neighbor,
// for one prefix.
type dirtyKey struct {
	router   RouterID
	prefix   netutil.Prefix
	neighbor RouterID
}

// Stats returns the decision-work counters accumulated so far.
func (n *Network) Stats() IncStats { return n.inc }

// Batch runs f with dirty-pair draining deferred to the end, so a
// multi-setter configuration delta (the experiment's per-config
// prepend updates) collapses duplicate (router, prefix, neighbor)
// touches into one evaluation. Batches nest; the drain happens when
// the outermost batch ends.
func (n *Network) Batch(f func()) {
	n.batchDepth++
	defer func() {
		n.batchDepth--
		if n.batchDepth == 0 {
			n.drainDirty()
		}
	}()
	f()
}

// requestExport is the config-delta entry point: a dirty-set enqueue,
// drained now or at batch end.
func (n *Network) requestExport(s *Speaker, p netutil.Prefix, pc *PeerConfig) {
	k := dirtyKey{s.ID, p, pc.Neighbor}
	if !n.dirtySet[k] {
		if n.dirtySet == nil {
			n.dirtySet = make(map[dirtyKey]bool)
		}
		n.dirtySet[k] = true
		n.dirtyQueue = append(n.dirtyQueue, k)
		n.inc.DirtyPairs++
		n.metrics.incDirtyPairs.Inc()
	}
	if n.batchDepth == 0 {
		n.drainDirty()
	}
}

// drainDirty evaluates every queued dirty pair in enqueue order (the
// setters run in deterministic order, so the drain is deterministic).
// exportToPeer never re-enqueues, so one pass empties the queue.
func (n *Network) drainDirty() {
	for i := 0; i < len(n.dirtyQueue); i++ {
		k := n.dirtyQueue[i]
		delete(n.dirtySet, k)
		s := n.speakers[k.router]
		if s == nil {
			continue
		}
		pc := s.Peer(k.neighbor)
		if pc == nil {
			continue
		}
		n.inc.DirtyEvals++
		n.metrics.incDirtyEvals.Inc()
		seqBefore := n.queue.Seq()
		n.exportToPeer(s, k.prefix, pc, s.Best(k.prefix))
		if n.queue.Seq() == seqBefore {
			// Nothing entered the event queue: the recomputed
			// announcement matched the adj-RIB-out, so no neighbor is
			// enqueued.
			n.inc.SuppressedProps++
			n.metrics.incSuppressed.Inc()
		}
	}
	n.dirtyQueue = n.dirtyQueue[:0]
}

// decide runs the decision process at s for p after a single-candidate
// change (slot `from`; 0 = the origination) and exports the outcome.
// before/after are the slot's effective candidate (nil when absent or
// suppressed) around the change.
func (n *Network) decide(s *Speaker, p netutil.Prefix, from RouterID, before, after *Route) {
	n.metrics.decisionRuns.Inc()
	n.inc.DecisionRuns++
	var best *Route
	var changed bool
	switch {
	case n.referenceScan:
		best, changed = n.scanDecision(s, p)
	case routesEqual(before, after):
		// The effective candidate is semantically unchanged (damped
		// flap, equal re-origination): the selection cannot move. A
		// full scan would conclude changed=false, so only its
		// VRF-session export check remains.
		n.inc.NoopDecisions++
		n.metrics.incNoop.Inc()
	default:
		best, changed = n.deltaBest(s, p, from, after)
	}
	if changed {
		n.metrics.bestChanges.Inc()
		n.inc.BestChanges++
	}
	n.exportAfterDecision(s, p, best, changed)
}

// deltaBest updates the loc-RIB for a single-slot change with one
// comparison when sound, a full scan otherwise, and reports whether the
// loc-RIB changed and, if it did, the route it now holds. It mirrors
// runDecision's change-detection semantics exactly (semantic equality
// keeps the previous pointer).
func (n *Network) deltaBest(s *Speaker, p netutil.Prefix, from RouterID, after *Route) (*Route, bool) {
	prev := s.locRib.Get(locKey(p))
	if !s.medSeen[p] {
		switch {
		case after == nil:
			if prev == nil || prev.From != from {
				// A non-best candidate disappeared; the best stands.
				n.fastPathHit()
				return nil, false
			}
			// The best itself disappeared: only a scan finds the
			// runner-up.
		case prev == nil:
			// First candidate wins unopposed.
			n.fastPathHit()
			s.locRib.Install(locKey(p), after)
			return after, true
		case prev.From == from:
			// The best route's own slot changed. If the replacement
			// still beats the old best it beats every other candidate
			// (prev was verified against all of them, and the order is
			// transitive without MED).
			if c, _ := Compare(after, prev); c <= 0 {
				n.fastPathHit()
				if routesEqual(prev, after) {
					return nil, false
				}
				s.locRib.Install(locKey(p), after)
				return after, true
			}
			// The slot degraded below the old best: scan.
		default:
			// A challenger slot changed. One comparison against the
			// incumbent decides: the incumbent already beats every
			// other candidate.
			c, _ := Compare(after, prev)
			if c < 0 {
				n.fastPathHit()
				s.locRib.Install(locKey(p), after)
				return after, true
			}
			if c > 0 {
				n.fastPathHit()
				return nil, false
			}
			// c == 0 is impossible for distinct From; scan defensively.
		}
	}
	return n.scanDecision(s, p)
}

func (n *Network) fastPathHit() {
	n.inc.FastPath++
	n.metrics.incFastPath.Inc()
}

// scanDecision is the metered full scan: the fast path's fallback and
// the whole of the tests' reference. It returns what deltaBest does:
// the scanned best, and whether the loc-RIB changed.
func (n *Network) scanDecision(s *Speaker, p netutil.Prefix) (*Route, bool) {
	n.inc.FullScans++
	n.metrics.fullScans.Inc()
	best := n.bestCandidate(s, p, nil)
	return best, s.runDecision(p, best)
}
