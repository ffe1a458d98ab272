package bgp

import (
	"fmt"
	"sort"

	"repro/internal/asn"
	"repro/internal/netutil"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// event is a BGP update in flight: an announcement (route != 0) or a
// withdrawal, due at a speaker, plus internal timer events (RFD reuse
// checks, MRAI flushes). It lives in the queue by value, inside the
// vtime.Item that carries its due time and FIFO tie-break, so the
// queue's (At, Seq) ordering is the single definition of delivery order
// and queuing an event costs no allocation of its own. The announced
// route waits in Network.inflight rather than in the event: a
// pointer-free item is stored in the queue without write barriers, and
// the garbage collector never scans it.
type event struct {
	to     RouterID
	from   RouterID
	prefix netutil.Prefix
	route  uint32 // the announced route's slot in Network.inflight; 0 = withdraw
	rfd    bool   // RFD reuse-check timer rather than an update
	mrai   bool   // MRAI flush timer, delivered to the *sender*
}

// UpdateRecord is one BGP message as observed at a collector, the raw
// material of Figure 3 and Tables 3-4.
type UpdateRecord struct {
	At        Time
	Collector RouterID
	PeerAS    asn.AS // the collector's peer that relayed the update
	Prefix    netutil.Prefix
	Announce  bool
	Path      asn.Path
}

// ChurnLog accumulates collector-observed updates plus network-wide
// message totals.
type ChurnLog struct {
	// Records holds every update received by a Collector speaker, in
	// delivery order.
	Records []UpdateRecord
	// TotalMessages counts all update messages delivered anywhere.
	TotalMessages int
}

// Network is the simulated internetwork: speakers, sessions, a virtual
// clock, and the in-flight update queue.
type Network struct {
	speakers map[RouterID]*Speaker
	order    []RouterID
	byName   map[string]RouterID

	clock Time
	queue vtime.Queue[event]

	// DefaultDelay is the per-hop propagation delay applied when a
	// session has none configured.
	DefaultDelay Time

	// Churn is the update log; reset it between experiment phases to
	// window the counts.
	Churn ChurnLog

	// CollectorFeedDown, when set, reports whether the archive feed of
	// the given collector is down at a virtual time. Updates delivered
	// to that collector during a gap are processed normally (the BGP
	// session itself stays up) but are not recorded in Churn — the
	// collector-outage failure mode of public archives, where update
	// files go missing while routing continues.
	CollectorFeedDown func(collector RouterID, at Time) bool

	eventsProcessed int

	// metrics holds the pre-resolved instrumentation counters; the
	// zero value (nil counters) is the free disabled path. Speakers
	// share it by pointer, so SetMetrics enables the whole network at
	// once.
	metrics netMetrics

	// Delta-engine state (see incremental.go): the dirty-pair work
	// queue fed by config setters and session flaps, and the
	// decision-work counters.
	batchDepth int
	dirtyQueue []dirtyKey
	dirtySet   map[dirtyKey]bool
	inc        IncStats

	// referenceScan makes every decision take the full-scan fallback.
	// It is the differential tests' oracle, settable only through
	// export_test.go.
	referenceScan bool

	// Compact-RIB state (see arena.go): when compact is set (before
	// any speaker exists), AddSpeaker gives each speaker arena-backed
	// stores over the shared path table and prefix index in ribBE.
	compact bool
	ribBE   *ribBackend

	// Per-update scratch (see bestCandidate and exportPath): the
	// full-scan candidate buffer, emptied after every scan so it keeps
	// no route alive, and the last prepended export path, so every
	// session of one fan-out shares one path.
	cands    []*Route
	prepends prependMemo

	// inflight holds the route of every queued announcement by the
	// slot its event carries (see event); slot 0 stays nil. freeSlots
	// lists the released slots for reuse.
	inflight  []*Route
	freeSlots []uint32

	// jr is the open undo journal, nil when none (see journal.go).
	jr *journal
}

// park stores r (nil: none) for a queued event and returns its slot.
func (n *Network) park(r *Route) uint32 {
	if r == nil {
		return 0
	}
	if k := len(n.freeSlots); k > 0 {
		slot := n.freeSlots[k-1]
		n.freeSlots = n.freeSlots[:k-1]
		n.inflight[slot] = r
		return slot
	}
	if len(n.inflight) == 0 {
		n.inflight = append(n.inflight, nil)
	}
	n.inflight = append(n.inflight, r)
	return uint32(len(n.inflight) - 1)
}

// parked returns the route in slot, nil for slot 0.
func (n *Network) parked(slot uint32) *Route {
	if slot == 0 {
		return nil
	}
	return n.inflight[slot]
}

// unpark releases slot and returns its route.
func (n *Network) unpark(slot uint32) *Route {
	r := n.parked(slot)
	if slot != 0 {
		n.inflight[slot] = nil
		n.freeSlots = append(n.freeSlots, slot)
	}
	return r
}

// prependMemo is a one-entry memo of src.Path prepended n times with
// the AS of speaker id. Holding src keeps its address from being
// reused, so pointer identity is a sound key (an arena store that
// re-boxes src only costs a miss); paths are immutable once built, so
// every announcement may share the one it holds.
type prependMemo struct {
	src  *Route
	id   RouterID
	n    int
	path asn.Path
}

// netMetrics caches the dynamic engine's hot-path counters so the
// per-event cost is one nil check when telemetry is disabled and one
// atomic add when enabled.
type netMetrics struct {
	decisionRuns     *telemetry.Counter
	bestChanges      *telemetry.Counter
	updatesDelivered *telemetry.Counter
	rfdPenalties     *telemetry.Counter
	rfdSuppressions  *telemetry.Counter

	// Decision-work accounting. These (and only these) may differ
	// between the engine and the tests' full-scan reference; everything
	// above is 1:1.
	fullScans     *telemetry.Counter
	incFastPath   *telemetry.Counter
	incNoop       *telemetry.Counter
	incDirtyPairs *telemetry.Counter
	incDirtyEvals *telemetry.Counter
	incSuppressed *telemetry.Counter
}

// SetMetrics wires the network (and every speaker, present and
// future) to the registry. A nil registry disables instrumentation.
func (n *Network) SetMetrics(r *telemetry.Registry) {
	n.metrics = netMetrics{
		decisionRuns:     r.Counter("bgp_decision_runs_total"),
		bestChanges:      r.Counter("bgp_best_path_changes_total"),
		updatesDelivered: r.Counter("bgp_updates_delivered_total"),
		rfdPenalties:     r.Counter("bgp_rfd_penalties_total"),
		rfdSuppressions:  r.Counter("bgp_rfd_suppressions_total"),

		fullScans:     r.Counter("bgp_decision_full_scans_total"),
		incFastPath:   r.Counter("bgp_inc_fastpath_total"),
		incNoop:       r.Counter("bgp_inc_noop_decisions_total"),
		incDirtyPairs: r.Counter("bgp_inc_dirty_pairs_total"),
		incDirtyEvals: r.Counter("bgp_inc_dirty_evals_total"),
		incSuppressed: r.Counter("bgp_inc_suppressed_propagations_total"),
	}
}

// NewNetwork returns an empty network with a 1-second default hop
// delay.
func NewNetwork() *Network {
	return &Network{
		speakers:     make(map[RouterID]*Speaker),
		byName:       make(map[string]RouterID),
		DefaultDelay: 1,
	}
}

// Now returns the virtual clock.
func (n *Network) Now() Time { return n.clock }

// EventsProcessed returns the number of delivered events so far.
func (n *Network) EventsProcessed() int { return n.eventsProcessed }

// PendingEvents returns the number of queued (undelivered) events.
func (n *Network) PendingEvents() int { return n.queue.Len() }

// AddSpeaker creates a speaker. IDs and names must be unique.
func (n *Network) AddSpeaker(id RouterID, as asn.AS, name string) *Speaker {
	if n.jr != nil {
		panic("bgp: AddSpeaker with an open journal")
	}
	if _, dup := n.speakers[id]; dup {
		panic(fmt.Sprintf("bgp: duplicate speaker id %d", id))
	}
	if _, dup := n.byName[name]; dup && name != "" {
		panic(fmt.Sprintf("bgp: duplicate speaker name %q", name))
	}
	s := newSpeaker(id, as, name)
	if n.compact {
		if id == 0 {
			panic("bgp: RouterID 0 is reserved (loc-RIB store key)")
		}
		ar := newSpeakerArena(n.ribBE)
		in := newArenaStore(ar)
		loc := newArenaStore(ar)
		loc.sibling = in // loc-RIB delta-encodes against adj-RIB-in
		s.adjIn, s.locRib, s.adjOut = in, loc, newArenaStore(ar)
	} else {
		s.rows = newRibRows(s)
		s.adjIn, s.locRib, s.adjOut = s.rows.view(sideIn), s.rows.view(sideLoc), s.rows.view(sideOut)
	}
	s.net = n
	n.speakers[id] = s
	// Generators add speakers in ascending ID order, so the common case
	// is a plain append; re-sorting on every insertion would make an
	// 80K-speaker build quadratic.
	if k := len(n.order); k == 0 || n.order[k-1] < id {
		n.order = append(n.order, id)
	} else {
		n.order = append(n.order, id)
		sort.Slice(n.order, func(i, j int) bool { return n.order[i] < n.order[j] })
	}
	if name != "" {
		n.byName[name] = id
	}
	return s
}

// Speaker returns the speaker with the given ID, or nil.
func (n *Network) Speaker(id RouterID) *Speaker { return n.speakers[id] }

// SpeakerByName returns the speaker with the given name, or nil.
func (n *Network) SpeakerByName(name string) *Speaker {
	id, ok := n.byName[name]
	if !ok {
		return nil
	}
	return n.speakers[id]
}

// Speakers returns all router IDs in ascending order.
func (n *Network) Speakers() []RouterID {
	out := make([]RouterID, len(n.order))
	copy(out, n.order)
	return out
}

// Connect establishes a session between a and b. cfgAtA is a's policy
// toward b and vice versa; Connect fills in the Neighbor/NeighborAS
// fields from the speakers themselves.
func (n *Network) Connect(a, b RouterID, cfgAtA, cfgAtB PeerConfig) {
	sa, sb := n.speakers[a], n.speakers[b]
	if sa == nil || sb == nil {
		panic(fmt.Sprintf("bgp: Connect(%d,%d): unknown speaker", a, b))
	}
	if n.jr != nil {
		panic("bgp: Connect with an open journal")
	}
	cfgAtA.Neighbor, cfgAtA.NeighborAS = b, sb.AS
	cfgAtB.Neighbor, cfgAtB.NeighborAS = a, sa.AS
	pa, pb := cfgAtA, cfgAtB
	sa.addPeer(sb, &pa, &pb)
	sb.addPeer(sa, &pb, &pa)
	// Initial table exchange: a freshly established session carries
	// each side's existing exportable state (RFC 4271 §9.2: the whole
	// Adj-RIB-Out is advertised when the session comes up).
	for _, p := range sa.exportablePrefixes() {
		n.exportToPeer(sa, p, &pa, sa.Best(p))
	}
	for _, p := range sb.exportablePrefixes() {
		n.exportToPeer(sb, p, &pb, sb.Best(p))
	}
}

// OriginateOpts parametrize an origination.
type OriginateOpts struct {
	// Communities are attached to the origination and travel with it.
	Communities CommunitySet
	// Poison inserts the given ASes into the announced path (after the
	// origin's own leading AS, before its trailing copy), the active
	// AS-path-poisoning technique of Colitti et al. (§2.2): any AS in
	// the list discards the route through loop detection, keeping the
	// announcement out of that AS's part of the Internet.
	Poison []asn.AS
}

// Originate injects a locally originated route at the speaker and
// propagates it. Announcing an already-originated prefix replaces the
// origination (a re-announcement).
func (n *Network) Originate(id RouterID, p netutil.Prefix) {
	n.OriginateWith(id, p, OriginateOpts{})
}

// OriginateWith is Originate with communities and/or poisoning.
func (n *Network) OriginateWith(id RouterID, p netutil.Prefix, opts OriginateOpts) {
	s := n.speakers[id]
	if s == nil {
		panic(fmt.Sprintf("bgp: Originate: unknown speaker %d", id))
	}
	// A poisoned origination pre-seeds the path with "<poison...> <own>"
	// so exports read "<own> <poison...> <own>": the origin stays the
	// origin, and poisoned ASes drop the route.
	var path asn.Path
	if len(opts.Poison) > 0 {
		path = make(asn.Path, 0, len(opts.Poison)+1)
		path = append(path, opts.Poison...)
		path = append(path, s.AS)
	}
	var before *Route
	if o, ok := s.originated[p]; ok {
		before = o.route
	}
	after := &Route{
		Prefix:      p,
		Path:        path,
		Origin:      OriginIGP,
		LocalPref:   LocalPrefOwn,
		Class:       ClassOwn,
		From:        0,
		FromAS:      asn.None,
		EBGP:        false,
		LearnedAt:   n.clock,
		Communities: opts.Communities,
	}
	if n.jr != nil {
		n.jr.orig.save(s.originated, p)
	}
	s.originated[p] = origination{route: after}
	n.decide(s, p, 0, before, after)
}

// WithdrawOrigination removes a local origination and propagates the
// withdrawal.
func (n *Network) WithdrawOrigination(id RouterID, p netutil.Prefix) {
	s := n.speakers[id]
	if s == nil {
		return
	}
	o, ok := s.originated[p]
	if !ok {
		return
	}
	if n.jr != nil {
		n.jr.orig.save(s.originated, p)
	}
	delete(s.originated, p)
	n.decide(s, p, 0, o.route, nil)
}

// SetExportPrepend changes the operator prepending s applies toward
// neighbor nb and re-exports affected prefixes. This is the knob the
// experiments turn between probing rounds (§3.3).
func (n *Network) SetExportPrepend(id, nb RouterID, prepends int) {
	s := n.speakers[id]
	if s == nil {
		return
	}
	pc := s.Peer(nb)
	if pc == nil || pc.ExportPrepend == prepends {
		return
	}
	n.savePeer(pc)
	pc.ExportPrepend = prepends
	// Re-export every prefix this speaker currently advertises (or
	// should advertise) to nb. Prefixes pinned by a per-prefix
	// override are untouched by the session-level knob — the same
	// effective-value no-op rule SetPrefixPrepend applies.
	for _, p := range s.exportablePrefixes() {
		if _, pinned := pc.PrefixPrepend[p]; pinned {
			continue
		}
		n.requestExport(s, p, pc)
	}
}

// SetSessionDown tears down the session between a and b: both sides
// drop all routes learned over it and propagate the consequences, and
// no updates flow until SetSessionUp. Used to inject the outages that
// produce the paper's "Switch to commodity" and "Oscillating"
// categories (§4).
func (n *Network) SetSessionDown(a, b RouterID) {
	sa := n.speakers[a]
	if sa == nil {
		return
	}
	ss := sa.session(b)
	if ss == nil || ss.pc.down {
		return
	}
	sb, pcA, pcB := ss.nb, ss.pc, ss.pcAtNb
	n.savePeer(pcA)
	n.savePeer(pcB)
	pcA.down, pcB.down = true, true
	n.flushSession(sa, pcA)
	n.flushSession(sb, pcB)
}

// SetSessionUp restores a torn-down session and re-advertises current
// state in both directions.
func (n *Network) SetSessionUp(a, b RouterID) {
	sa := n.speakers[a]
	if sa == nil {
		return
	}
	ss := sa.session(b)
	if ss == nil || !ss.pc.down {
		return
	}
	sb, pcA, pcB := ss.nb, ss.pc, ss.pcAtNb
	n.savePeer(pcA)
	n.savePeer(pcB)
	pcA.down, pcB.down = false, false
	for _, p := range sa.exportablePrefixes() {
		n.requestExport(sa, p, pcA)
	}
	for _, p := range sb.exportablePrefixes() {
		n.requestExport(sb, p, pcB)
	}
}

// flushSession drops every adj-RIB-in entry s holds over the session pc
// and every adj-RIB-out entry it carries, rerunning decisions.
func (n *Network) flushSession(s *Speaker, pc *PeerConfig) {
	nb := pc.Neighbor
	// Collect first, mutate after: stores do not allow mutation during
	// a walk.
	var prefixes []netutil.Prefix
	s.adjIn.WalkSorted(func(k ribKey, _ *Route) bool {
		if k.neighbor == nb {
			prefixes = append(prefixes, k.prefix)
		}
		return true
	})
	var outKeys []ribKey
	s.adjOut.WalkSorted(func(k ribKey, _ *Route) bool {
		if k.neighbor == nb {
			outKeys = append(outKeys, k)
		}
		return true
	})
	for _, k := range outKeys {
		s.adjOut.Withdraw(k)
	}
	netutil.SortPrefixes(prefixes)
	for _, p := range prefixes {
		if before, after, changed := s.applyImport(p, pc, nil, n.clock); changed {
			n.decide(s, p, nb, before, after)
		}
	}
}

// SetPrefixPrepend changes the prepending applied to one prefix when
// exporting to neighbor nb, leaving other prefixes untouched, and
// re-exports that prefix. This is how the experiments adjust the
// measurement prefix without disturbing other announcements.
func (n *Network) SetPrefixPrepend(id, nb RouterID, p netutil.Prefix, prepends int) {
	s := n.speakers[id]
	if s == nil {
		return
	}
	pcN := s.Peer(nb)
	if pcN == nil {
		return
	}
	_, hadOverride := pcN.PrefixPrepend[p]
	if hadOverride && pcN.PrefixPrepend[p] == prepends {
		return
	}
	n.savePeer(pcN)
	if pcN.PrefixPrepend == nil {
		pcN.PrefixPrepend = make(map[netutil.Prefix]int)
	}
	if n.jr != nil {
		n.jr.prepends.save(pcN.PrefixPrepend, p)
	}
	pcN.PrefixPrepend[p] = prepends
	// Unified no-op detection with SetExportPrepend: recording an
	// override equal to the session default leaves the effective
	// prepend — and thus the announcement — unchanged. The override
	// is still installed (it pins the prefix against future
	// session-level changes) but nothing is enqueued.
	if !hadOverride && pcN.ExportPrepend == prepends {
		return
	}
	n.requestExport(s, p, pcN)
}

// SetImportDeny installs (or clears, with nil) a speaker-wide import
// filter applied on every session after the per-session
// PeerConfig.ImportDeny, with identical semantics (deny turns the
// announcement into a withdrawal). This is the hook route-origin
// validation attaches to (rpki.Table.DropInvalid): one predicate per
// deploying AS, independent of per-session policy. Routes already in
// the adj-RIB-in that the new filter denies are withdrawn immediately,
// so installing a filter mid-life behaves as if every neighbor
// re-announced its current routes through it.
func (n *Network) SetImportDeny(id RouterID, fn func(*Route) bool) {
	s := n.speakers[id]
	if s == nil {
		return
	}
	if n.jr != nil {
		n.jr.denies = append(n.jr.denies, denyUndo{s, s.importDeny})
	}
	s.importDeny = fn
	if fn == nil {
		return
	}
	// Retroactive pass: collect denied entries first (stores do not
	// allow mutation during a walk), then withdraw through the normal
	// import path so RFD and decision bookkeeping stay consistent.
	var denied []ribKey
	s.adjIn.WalkSorted(func(k ribKey, r *Route) bool {
		if fn(r) {
			denied = append(denied, k)
		}
		return true
	})
	for _, k := range denied {
		pc := s.Peer(k.neighbor)
		if pc == nil {
			continue
		}
		if before, after, changed := s.applyImport(k.prefix, pc, nil, n.clock); changed {
			n.decide(s, k.prefix, k.neighbor, before, after)
		}
	}
}

// SetImportLocalPref replaces the import localpref override on s's
// session from neighbor nb (0 restores the relationship-tier default,
// see PeerConfig.ImportLocalPref) and returns the previous override.
// applyImport bakes the localpref into each adj-RIB-in route at
// arrival, so the change is applied retroactively: every route already
// learned over the session is re-installed at the new preference and
// re-decided, exactly as if the neighbor re-announced it after the
// policy change. This is the optimizer's localpref gene lever.
func (n *Network) SetImportLocalPref(id, nb RouterID, pref uint32) uint32 {
	s := n.speakers[id]
	if s == nil {
		return 0
	}
	pc := s.Peer(nb)
	if pc == nil {
		return 0
	}
	old := pc.ImportLocalPref
	if old == pref {
		return old
	}
	n.savePeer(pc)
	pc.ImportLocalPref = pref
	lp := pc.localPref()
	// Retroactive pass: collect the session's entries first (stores do
	// not allow mutation during a walk), then re-install each at the
	// effective preference. Routes are immutable once installed, so the
	// update is a clone + Install, never an in-place edit.
	type reinstall struct {
		k ribKey
		r *Route
	}
	var todo []reinstall
	s.adjIn.WalkSorted(func(k ribKey, r *Route) bool {
		if k.neighbor == nb && r.LocalPref != lp {
			todo = append(todo, reinstall{k, r})
		}
		return true
	})
	for _, it := range todo {
		before := s.effectiveCandidate(it.k.prefix, nb)
		updated := *it.r
		updated.LocalPref = lp
		s.adjIn.Install(it.k, &updated)
		n.decide(s, it.k.prefix, nb, before, s.effectiveCandidate(it.k.prefix, nb))
	}
	return old
}

// SetExportAllow replaces the route-class set s exports toward
// neighbor nb and re-exports every affected prefix, returning the
// previous set. This is the route-leak lever: widening a multihomed
// customer's export policy toward a provider to the full class set
// re-advertises provider- and peer-learned routes in violation of
// Gao-Rexford export, and restoring the returned set ends the leak
// (narrowing withdraws the no-longer-exportable prefixes).
func (n *Network) SetExportAllow(id, nb RouterID, allow ClassSet) ClassSet {
	s := n.speakers[id]
	if s == nil {
		return 0
	}
	pc := s.Peer(nb)
	if pc == nil {
		return 0
	}
	old := pc.ExportAllow
	if old == allow {
		return old
	}
	n.savePeer(pc)
	pc.ExportAllow = allow
	for _, p := range s.exportablePrefixes() {
		n.requestExport(s, p, pc)
	}
	return old
}

// exportablePrefixes lists prefixes with any local state, sorted.
func (s *Speaker) exportablePrefixes() []netutil.Prefix {
	set := make(map[netutil.Prefix]bool)
	for p := range s.originated {
		set[p] = true
	}
	s.locRib.WalkSorted(func(k ribKey, _ *Route) bool {
		set[k.prefix] = true
		return true
	})
	s.adjOut.WalkSorted(func(k ribKey, _ *Route) bool {
		set[k.prefix] = true
		return true
	})
	out := make([]netutil.Prefix, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	netutil.SortPrefixes(out)
	return out
}

// exportAfterDecision performs the post-decision export fan-out: on
// change every session re-exports best, the route the decision just
// put in the loc-RIB, so the fan-out reads no loc-RIB at all; without
// one only VRF-filtered (ExportBestOf) sessions do, since their
// announcement can move without the loc-RIB, and best (nil) goes
// unread.
func (n *Network) exportAfterDecision(s *Speaker, p netutil.Prefix, best *Route, changed bool) {
	for i := range s.sessions {
		if pc := s.sessions[i].pc; changed || pc.ExportBestOf != nil {
			n.exportToPeer(s, p, pc, best)
		}
	}
}

// mraiState is one session's MRAI state for one prefix: when sendExport
// last sent, and whether a flush timer is queued for the deferred export.
type mraiState struct {
	last    Time
	pending bool
}

// exportToPeer computes the announcement for one session and enqueues
// it if it differs from what was last sent, honouring the session's
// MRAI: inside the interval the export is deferred to a flush timer,
// so rapid best-path changes collapse into one update (RFC 4271
// §9.2.1.1; the reproduction applies the interval to withdrawals too).
// best is s's loc-RIB route for p.
func (n *Network) exportToPeer(s *Speaker, p netutil.Prefix, pc *PeerConfig, best *Route) {
	if pc == nil || pc.down {
		return
	}
	// Collectors never re-export.
	if s.Collector {
		return
	}
	if pc.MRAI > 0 {
		k := ribKey{prefix: p, neighbor: pc.Neighbor}
		if st, ok := s.mrai[k]; ok && n.clock < st.last+pc.MRAI {
			if !st.pending {
				if n.jr != nil {
					n.jr.mrai.save(s.mrai, k)
				}
				s.mrai[k] = mraiState{last: st.last, pending: true}
				n.queue.Push(vtime.Time(st.last+pc.MRAI), event{
					to:     s.ID,
					from:   pc.Neighbor,
					prefix: p,
					mrai:   true,
				})
			}
			return
		}
	}
	n.sendExport(s, p, pc, best)
}

// sendExport performs the actual adj-RIB-out comparison and enqueue.
// The announcement is compared as a value and reaches the heap only
// when it differs: the one *Route the adj-RIB-out entry and the queued
// event then share. Two sessions never share a Route, even with equal
// announcements — the snapshot numbers routes per distinct pointer
// (routeIndex), so sharing would change its route table — only the
// path.
func (n *Network) sendExport(s *Speaker, p netutil.Prefix, pc *PeerConfig, best *Route) {
	ann, ok := n.exportRoute(s, p, pc, best)
	k := ribKey{prefix: p, neighbor: pc.Neighbor}
	prev := s.adjOut.Get(k)
	var r *Route
	switch {
	case ok && !announcementEqual(prev, &ann):
		r = new(Route)
		*r = ann
		s.adjOut.Install(k, r)
	case !ok && prev != nil:
		s.adjOut.Withdraw(k)
	default:
		return
	}
	delay := pc.Delay
	if delay <= 0 {
		delay = n.DefaultDelay
	}
	if pc.MRAI > 0 {
		if n.jr != nil {
			n.jr.mrai.save(s.mrai, k)
		}
		s.mrai[k] = mraiState{last: n.clock, pending: s.mrai[k].pending}
	}
	n.queue.Push(vtime.Time(n.clock+delay), event{
		to:     pc.Neighbor,
		from:   s.ID,
		prefix: p,
		route:  n.park(r),
	})
}

// Run processes queued events until the network is quiescent or the
// clock would pass `until` (use MaxTime to drain fully). The clock
// follows the events, so it ends at the last one processed, not at
// `until` (RunTo stands at its target). It returns the number of
// events processed.
func (n *Network) Run(until Time) int {
	processed := 0
	for {
		it, ok := n.queue.Peek()
		if !ok || Time(it.At) > until {
			break
		}
		n.queue.Pop()
		if Time(it.At) > n.clock {
			n.clock = Time(it.At)
		}
		n.deliver(&it.V)
		processed++
	}
	n.eventsProcessed += processed
	return processed
}

// RunTo processes every event due at or before t, each at its own
// time, and then leaves the clock at t; an earlier t moves nothing
// backwards. It returns the number of events processed.
func (n *Network) RunTo(t Time) int {
	processed := n.Run(t)
	if t > n.clock {
		n.clock = t
	}
	return processed
}

// MaxTime is a time later than any experiment uses.
const MaxTime = Time(1 << 40)

// RunToQuiescence drains the queue completely.
func (n *Network) RunToQuiescence() int { return n.Run(MaxTime) }

// deliver serves one queued event at speaker e.to. Each fact it needs
// is read once: the session, and the adj-RIB-in entry, which the
// import step reads and hands back as the effective candidate before
// and after the change.
func (n *Network) deliver(e *event) {
	route := n.unpark(e.route) // released on every path, dropped or not
	s := n.speakers[e.to]
	if s == nil {
		return
	}
	pc := s.Peer(e.from)
	if e.mrai {
		// Flush timer at the sender: re-evaluate the deferred export. A
		// timer is not an update in flight, so it ends the batch even
		// when the session is down; otherwise the session's next export
		// inside the interval would find the batch still pending and
		// schedule nothing.
		k := ribKey{prefix: e.prefix, neighbor: e.from}
		if n.jr != nil {
			n.jr.mrai.save(s.mrai, k)
		}
		s.mrai[k] = mraiState{last: s.mrai[k].last}
		if pc != nil && !pc.down && !s.Collector {
			n.sendExport(s, e.prefix, pc, s.Best(e.prefix))
		}
		return
	}
	if e.rfd {
		k := ribKey{prefix: e.prefix, neighbor: e.from}
		if cfg := pc.RFD; cfg != nil && s.rfdRecheck(k, cfg, n.clock) {
			// The suppressed route became usable: its effective
			// candidate went from nil to the held adj-in entry.
			n.decide(s, e.prefix, e.from, nil, s.adjIn.Get(k))
		}
		return
	}
	// Updates in flight when the session went down are lost.
	if pc != nil && pc.down {
		return
	}

	n.Churn.TotalMessages++
	n.metrics.updatesDelivered.Inc()
	if s.Collector && (n.CollectorFeedDown == nil || !n.CollectorFeedDown(s.ID, n.clock)) {
		var peerAS asn.AS
		if pc != nil {
			peerAS = pc.NeighborAS
		}
		rec := UpdateRecord{
			At:        n.clock,
			Collector: s.ID,
			PeerAS:    peerAS,
			Prefix:    e.prefix,
			Announce:  route != nil,
		}
		if route != nil {
			rec.Path = route.Path
		}
		n.Churn.Records = append(n.Churn.Records, rec)
	}
	if pc == nil {
		return
	}

	before, after, changed := s.applyImport(e.prefix, pc, route, n.clock)
	if !changed {
		return
	}
	// If RFD suppressed the route, schedule the reuse recheck.
	if pc.RFD != nil {
		k := ribKey{prefix: e.prefix, neighbor: e.from}
		if reuse := s.rfdReuseTime(k, pc.RFD); reuse >= 0 {
			n.queue.Push(vtime.Time(reuse+1), event{
				to:     s.ID,
				from:   e.from,
				prefix: e.prefix,
				rfd:    true,
			})
		}
	}
	n.decide(s, e.prefix, e.from, before, after)
}

// NextHop returns the neighbor the speaker forwards traffic for p to,
// following its best route. ok is false when the speaker has no route.
// A self-originated best route returns (id, true): traffic terminates.
func (n *Network) NextHop(id RouterID, p netutil.Prefix) (RouterID, bool) {
	s := n.speakers[id]
	if s == nil {
		return 0, false
	}
	best := s.locRib.Get(locKey(p))
	if best == nil {
		return 0, false
	}
	if best.From == 0 {
		return id, true
	}
	return best.From, true
}

// DefaultPrefix is 0.0.0.0/0, the fallback route of NextHopLPM.
var DefaultPrefix = netutil.PrefixFrom(0, 0)

// NextHopLPM is NextHop with longest-prefix-match semantics reduced to
// the two-entry case the data plane needs: the specific prefix if the
// speaker holds a route for it, otherwise its default route (the §1
// "import only a default route" alternative).
func (n *Network) NextHopLPM(id RouterID, p netutil.Prefix) (RouterID, bool) {
	if next, ok := n.NextHop(id, p); ok {
		return next, true
	}
	return n.NextHop(id, DefaultPrefix)
}

// ForwardPath walks AS-level forwarding from speaker id toward prefix
// p, returning the sequence of router IDs ending at the originating
// speaker. ok is false on a routing loop or a missing route, and path
// is then only how far the walk got before it gave up — no caller
// reads it.
func (n *Network) ForwardPath(id RouterID, p netutil.Prefix) ([]RouterID, bool) {
	return n.forwardPath(id, p, n.NextHop)
}

// ForwardPathLPM is ForwardPath with per-hop default-route fallback.
// The walk ends when a hop's route (specific or default) terminates
// locally; a walk that ends at a default-originating speaker without a
// specific route means the packet would be discarded there.
func (n *Network) ForwardPathLPM(id RouterID, p netutil.Prefix) ([]RouterID, bool) {
	return n.forwardPath(id, p, n.NextHopLPM)
}

func (n *Network) forwardPath(id RouterID, p netutil.Prefix, hop func(RouterID, netutil.Prefix) (RouterID, bool)) ([]RouterID, bool) {
	// Sized for the AS-path lengths the generators produce, so the
	// usual walk allocates once.
	path := make([]RouterID, 0, 8)
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
