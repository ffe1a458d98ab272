package bgp

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// ribKey indexes per-(prefix, neighbor) state: 16 pointer-free bytes
// with no padding, so Go hashes and compares a key as one memory block
// rather than field by field. The alignment of prefix would otherwise
// leave four padding bytes after neighbor; pad fills them and is
// always zero.
type ribKey struct {
	prefix   netutil.Prefix
	neighbor RouterID
	pad      uint32
}

// compare orders keys by (prefix, neighbor), prefix order per
// netutil.ComparePrefixes: the canonical serialization order of every
// keyed table in the snapshot format.
func (k ribKey) compare(o ribKey) int {
	if c := netutil.ComparePrefixes(k.prefix, o.prefix); c != 0 {
		return c
	}
	return cmp.Compare(k.neighbor, o.neighbor)
}

// origination holds the attributes of a locally originated prefix.
type origination struct {
	route *Route
}

// Speaker is a BGP router. The reproduction models one speaker per AS
// for ordinary networks; special cases (the measurement origins,
// VRF-split exporters) get additional speakers or per-session export
// filters.
type Speaker struct {
	// ID is the unique router ID (also the final decision tie-break).
	ID RouterID
	// AS is the speaker's autonomous system.
	AS asn.AS
	// Name is a human-readable label ("Internet2", "NYSERNet", ...).
	Name string
	// Collector marks a public-view peer (RouteViews/RIS-like): every
	// update it receives is recorded in the network churn log, and it
	// never re-exports routes. Set it before the speaker's first
	// Connect: a static solver reads it when it compiles, and setting
	// it moves no generation (static.go).
	Collector bool

	// sessions is the speaker's one session table, sorted by neighbor
	// ID: the export order, the row table's slot order (ribstore.go)
	// and the static solver's adjacency (static.go). addPeer alone
	// inserts into it.
	sessions []session

	// The three RIBs sit behind the ribStore interface (ribstore.go):
	// views onto rows by default, the arena layout under
	// Network.SetCompactRIB (rows is then nil). The loc-RIB is keyed
	// with neighbor 0.
	rows       *ribRows
	adjIn      ribStore
	adjOut     ribStore
	locRib     ribStore
	originated map[netutil.Prefix]origination

	// Per-(prefix, neighbor) damping and MRAI states; nSuppressed
	// counts the rfd states whose suppressed bit is set. These maps,
	// originated and medSeen stay nil until their first write
	// (setEntry).
	rfd         map[ribKey]rfdState
	mrai        map[ribKey]mraiState
	nSuppressed int

	// importDeny is a speaker-wide import filter applied after the
	// per-session pc.ImportDeny, with the same semantics (deny turns
	// the announcement into a withdrawal). It models policies an AS
	// applies on every session — RPKI route-origin validation being
	// the motivating case (see Network.SetImportDeny). Kept off
	// PeerConfig so snapshot fingerprints (which encode per-session
	// ImportDeny presence) stay compatible with ROV-enabled worlds.
	importDeny func(*Route) bool

	// medSeen gates the decision fast path (see incremental.go): set
	// permanently once any nonzero-MED route is seen for a prefix,
	// because MED makes pairwise comparison non-transitive and only a
	// full scan is then sound.
	medSeen map[netutil.Prefix]bool

	// net is the owning network: its counter set (nil-safe counters;
	// see Network.SetMetrics) and its open undo journal, if any.
	net *Network
}

// newSpeaker returns a speaker without RIBs: AddSpeaker gives it the
// network's layout. Its side tables are made on their first write
// (setEntry).
func newSpeaker(id RouterID, as asn.AS, name string) *Speaker {
	return &Speaker{ID: id, AS: as, Name: name}
}

// session is one BGP session as one of its speakers sees it: the
// neighbor, and the policy of each side toward the other.
type session struct {
	nbID   RouterID
	nb     *Speaker
	pcAtNb *PeerConfig // nb's policy toward the speaker (export side)
	pc     *PeerConfig // the speaker's policy toward nb (import side)
}

// slot returns the position of neighbor nb's session in s.sessions; ok
// is false when nb is not a neighbor, and the position is then where
// its session would go.
func (s *Speaker) slot(nb RouterID) (int, bool) {
	lo, hi := 0, len(s.sessions)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.sessions[m].nbID < nb {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.sessions) && s.sessions[lo].nbID == nb
}

// session returns s's session with neighbor nb, or nil.
func (s *Speaker) session(nb RouterID) *session {
	if i, ok := s.slot(nb); ok {
		return &s.sessions[i]
	}
	return nil
}

// Peer returns the speaker's policy toward neighbor id, or nil. It
// only reads: goroutines that only read a network may call it side by
// side. Change a policy through Network's setters
// (SetExportAllow, SetExportFilter, ...): they re-export what the
// change affects and move the network's generation. A write through
// the returned pointer does neither, and a static solver compiled
// before it does not see it.
func (s *Speaker) Peer(id RouterID) *PeerConfig {
	if ss := s.session(id); ss != nil {
		return ss.pc
	}
	return nil
}

// Peers returns neighbor IDs in deterministic order.
func (s *Speaker) Peers() []RouterID {
	out := make([]RouterID, len(s.sessions))
	for i := range s.sessions {
		out[i] = s.sessions[i].nbID
	}
	return out
}

// addPeer inserts s's session with nb, where pc is s's policy toward
// nb and pcAtNb nb's toward s, and gives the row table its slot.
func (s *Speaker) addPeer(nb *Speaker, pc, pcAtNb *PeerConfig) {
	i, dup := s.slot(nb.ID)
	if dup {
		panic(fmt.Sprintf("bgp: speaker %d already peers with %d", s.ID, nb.ID))
	}
	s.sessions = slices.Insert(s.sessions, i, session{nbID: nb.ID, nb: nb, pcAtNb: pcAtNb, pc: pc})
	if s.rows != nil {
		s.rows.addSlot(i)
	}
}

// Best returns the speaker's current loc-RIB route for prefix p.
func (s *Speaker) Best(p netutil.Prefix) *Route { return s.locRib.Get(locKey(p)) }

// WalkBest visits the loc-RIB — every prefix the speaker has a best
// route for — in prefix order until fn returns false. The routes are
// the ones Best returns and must not be modified.
func (s *Speaker) WalkBest(fn func(*Route) bool) {
	s.locRib.WalkSorted(func(_ ribKey, r *Route) bool { return fn(r) })
}

// AdjIn returns the route currently held from the given neighbor for
// prefix p, or nil. Suppressed (damped) routes are still visible here.
func (s *Speaker) AdjIn(p netutil.Prefix, neighbor RouterID) *Route {
	return s.adjIn.Get(ribKey{prefix: p, neighbor: neighbor})
}

// AdjInAll returns all adj-RIB-in routes for p in neighbor order.
func (s *Speaker) AdjInAll(p netutil.Prefix) []*Route { return s.adjIn.appendRoutes(p, nil) }

// AdjOut returns what the speaker last announced to neighbor for p.
func (s *Speaker) AdjOut(p netutil.Prefix, neighbor RouterID) *Route {
	return s.adjOut.Get(ribKey{prefix: p, neighbor: neighbor})
}

// candidateSet appends to buf the decision-process inputs for p that
// admit accepts (nil accepts all): the local origination first, then
// unsuppressed adj-RIB-in routes in neighbor order. The store's walk
// visits p's routes alone, so a scan costs what p's candidates cost,
// not one lookup per session; each route's From is the neighbor it
// was learned from, its damping key.
func (s *Speaker) candidateSet(p netutil.Prefix, admit func(*Route) bool, buf []*Route) []*Route {
	if o, ok := s.originated[p]; ok && (admit == nil || admit(o.route)) {
		buf = append(buf, o.route)
	}
	start := len(buf)
	buf = s.adjIn.appendRoutes(p, buf)
	kept := buf[:start]
	for _, r := range buf[start:] {
		if !s.damped(ribKey{prefix: p, neighbor: r.From}) && (admit == nil || admit(r)) {
			kept = append(kept, r)
		}
	}
	clear(buf[len(kept):])
	return kept
}

// bestCandidate is the decision process over s's candidates for p that
// admit accepts, collected in the network's one candidate buffer. The
// buffer is emptied before returning so it keeps no route alive.
func (n *Network) bestCandidate(s *Speaker, p netutil.Prefix, admit func(*Route) bool) *Route {
	n.cands = s.candidateSet(p, admit, n.cands[:0])
	best, _ := Best(n.cands)
	clear(n.cands)
	return best
}

// effectiveCandidate returns the route neighbor nb currently
// contributes to p's decision: nil when absent or damped.
func (s *Speaker) effectiveCandidate(p netutil.Prefix, nb RouterID) *Route {
	k := ribKey{prefix: p, neighbor: nb}
	if s.damped(k) {
		return nil
	}
	return s.adjIn.Get(k)
}

// damped reports whether route-flap damping holds back the route under
// k. A speaker with no route damped right now — every speaker without
// RFD among them — skips the lookup.
func (s *Speaker) damped(k ribKey) bool { return s.nSuppressed != 0 && s.rfd[k].suppressed }

// runDecision completes a full-scan decision for p: best is the winner
// of the scan over every candidate (Network.bestCandidate). It reports
// whether the loc-RIB changed.
func (s *Speaker) runDecision(p netutil.Prefix, best *Route) bool {
	prev := s.locRib.Get(locKey(p))
	if routesEqual(prev, best) {
		return false
	}
	if best == nil {
		s.locRib.Withdraw(locKey(p))
	} else {
		s.locRib.Install(locKey(p), best)
	}
	return true
}

// routesEqual reports semantic equality for loc-RIB change detection.
// LearnedAt is deliberately ignored: a re-announcement carrying
// identical attributes does not change the selected route.
func routesEqual(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.From == b.From &&
		a.LocalPref == b.LocalPref &&
		a.MED == b.MED &&
		a.Origin == b.Origin &&
		a.Class == b.Class &&
		a.Path.Equal(b.Path) &&
		communitiesEqual(a.Communities, b.Communities)
}

// exportRoute computes the announcement s would send the neighbor
// described by pc; ok is false if policy withholds the prefix. best is
// s's loc-RIB route for p. It only selects the source route;
// whether and how that route is announced is the one export policy the
// static solver also applies (static.go). The announcement is a value,
// so comparing it with what the session last carried costs nothing on
// the heap (sendExport), and its path is the one every session of the
// fan-out shares (exportPath).
func (n *Network) exportRoute(s *Speaker, p netutil.Prefix, pc *PeerConfig, best *Route) (ann Route, ok bool) {
	src := best
	if pc.ExportBestOf != nil {
		// VRF-style export: best among matching adj-RIB-in routes and
		// matching originations, ignoring the loc-RIB choice.
		src = n.bestCandidate(s, p, pc.ExportBestOf)
	}
	if src == nil || !exportAdmits(src, pc) {
		return Route{}, false
	}
	return announcement(src, n.exportPath(s, src, pc), pc), true
}

// exportPath is src's path as s announces it toward the neighbor
// described by pc: s's AS prepended 1 + effectivePrepend times. A
// fan-out exports one source route to every session in turn, so a
// one-entry memo builds the path once for all sessions with the same
// prepend count.
func (n *Network) exportPath(s *Speaker, src *Route, pc *PeerConfig) asn.Path {
	count := 1 + pc.effectivePrepend(src.Prefix)
	if m := &n.prepends; m.src != src || m.id != s.ID || m.n != count {
		*m = prependMemo{src: src, id: s.ID, n: count, path: src.Path.Prepend(s.AS, count)}
	}
	return n.prepends.path
}

// announcementEqual compares wire-visible attributes of announcements.
func announcementEqual(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.MED == b.MED && a.Origin == b.Origin && a.Path.Equal(b.Path) &&
		communitiesEqual(a.Communities, b.Communities)
}

func communitiesEqual(a, b CommunitySet) bool {
	if a.Len() != b.Len() {
		return false
	}
	av, bv := a.Values(), b.Values()
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

// applyImport installs (or removes, when r is nil) a route received
// over the session pc at virtual time now, applying import policy and
// RFD. changed reports whether the adj-RIB-in (or suppression state)
// changed in a way that requires a decision run; before and after are
// the session's effective candidate for p (nil when absent or damped)
// around the change, both derived from the one read of the adj-RIB-in
// entry.
func (s *Speaker) applyImport(p netutil.Prefix, pc *PeerConfig, r *Route, now Time) (before, after *Route, changed bool) {
	k := ribKey{prefix: p, neighbor: pc.Neighbor}
	prev := s.adjIn.Get(k)
	if before = prev; before != nil && s.damped(k) {
		before = nil
	}

	// Import filtering and receiver-side loop detection turn an
	// announcement into an effective withdrawal.
	if r != nil {
		if r.Path.Contains(s.AS) {
			r = nil
		} else if pc.ImportDeny != nil || s.importDeny != nil {
			filtered := *r
			filtered.Class = pc.ClassifyAs
			if pc.ImportDeny != nil && pc.ImportDeny(&filtered) {
				r = nil
			} else if s.importDeny != nil && s.importDeny(&filtered) {
				r = nil
			}
		}
	}

	if r == nil {
		if prev == nil {
			return before, before, false
		}
		s.adjIn.Withdraw(k)
		if pc.RFD != nil {
			s.rfdFlap(k, pc.RFD, now)
		}
		return before, nil, true
	}

	// Built as a value: a duplicate never reaches the heap.
	in := Route{
		Prefix:      p,
		Path:        r.Path,
		Origin:      r.Origin,
		MED:         r.MED,
		LocalPref:   pc.localPref(),
		Class:       pc.ClassifyAs,
		From:        pc.Neighbor,
		FromAS:      pc.NeighborAS,
		EBGP:        true,
		IGPCost:     pc.IGPCost,
		LearnedAt:   now,
		Communities: r.Communities,
	}
	if prev != nil && routesEqual(prev, &in) {
		// Duplicate announcement: no flap, no age reset needed for our
		// model (the route version is unchanged).
		return before, before, false
	}
	installed := new(Route)
	*installed = in
	s.adjIn.Install(k, installed)
	if in.MED != 0 {
		if s.net.jr != nil {
			s.net.jr.medSeen.save(&s.medSeen, p)
		}
		setEntry(&s.medSeen, p, true)
	}
	if pc.RFD != nil {
		s.rfdFlap(k, pc.RFD, now)
	}
	if s.damped(k) {
		return before, nil, true
	}
	return before, s.adjIn.stored(k, installed), true
}

func (s *Speaker) rfdFlap(k ribKey, cfg *RFDConfig, now Time) {
	if s.net.jr != nil {
		s.saveRFD(k)
	}
	st, ok := s.rfd[k]
	if !ok {
		st.lastUpdate = now
	}
	was := st.suppressed
	s.net.metrics.rfdPenalties.Inc()
	if st.Flap(now, cfg) && !was {
		s.net.metrics.rfdSuppressions.Inc()
		s.nSuppressed++
	} else if was && !st.suppressed {
		s.nSuppressed-- // refresh released it
	}
	setEntry(&s.rfd, k, st)
}

// rfdReuseTime returns the virtual time at which the suppressed route
// for k becomes usable again, or -1 if it is not suppressed.
func (s *Speaker) rfdReuseTime(k ribKey, cfg *RFDConfig) Time {
	st := s.rfd[k]
	if !st.suppressed {
		return -1
	}
	// Analytic reuse point: penalty * 2^(-dt/halfLife) = reuse.
	var dt Time
	if st.penalty > cfg.ReuseThreshold {
		dt = Time(float64(cfg.HalfLife) * math.Log2(st.penalty/cfg.ReuseThreshold))
	}
	reuse := st.lastUpdate + dt
	if cap := st.suppressAt + cfg.MaxSuppress; cap < reuse {
		reuse = cap
	}
	return reuse
}

// rfdRecheck re-evaluates suppression at time now; returns true if the
// route became usable (decision should rerun).
func (s *Speaker) rfdRecheck(k ribKey, cfg *RFDConfig, now Time) bool {
	st := s.rfd[k]
	if !st.suppressed {
		return false
	}
	if s.net.jr != nil {
		s.saveRFD(k)
	}
	released := !st.Suppressed(now, cfg)
	if released {
		s.nSuppressed--
	}
	setEntry(&s.rfd, k, st)
	return released && s.adjIn.Get(k) != nil
}
