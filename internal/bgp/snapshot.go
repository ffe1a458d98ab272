package bgp

// Engine-state serialization. Snapshot writes the complete dynamic
// state of a Network — RIBs, damping timers, MRAI batches, the
// in-flight event queue, churn log, and work counters — into the
// versioned container of internal/snapshot; RestoreNetwork
// rehydrates it into a freshly built base network whose topology and
// policy match. Checkpoint/resume is its one production caller: a
// rewind within one process is the undo journal's job (journal.go).
// The restored network is byte-identical in every observable output to
// the original: same messages at the same virtual times, same churn
// records, same RIB contents.
//
// Two invariants shape the format:
//
//   - Determinism. Every map is emitted under sorted keys and every
//     route reference is an index into a route table built by a fixed
//     canonical traversal, so two Snapshot calls on the same network
//     produce identical bytes (pinned by TestSnapshotDeterministic).
//     Every keyed table is also read back in that order: the decoder
//     requires strictly increasing keys, and RestoreNetwork loads the
//     three RIB tables as they come (ribStore.load), without sorting
//     anything again. Tables the engine keeps in step must agree on
//     restore: the suppressed set with the damping states, the pending
//     MRAI batches with their last-sent times and with the queued
//     flush timers (checkFlushes).
//
//   - Pointer identity. sendExport stores one *Route into both the
//     adj-RIB-out and the queued event's Network.inflight slot, and a
//     queued event may hold a stale pointer no RIB reaches any more.
//     The route table assigns one index per distinct pointer, so
//     aliasing survives a round trip. An arena store has no pointers to
//     keep: each of its entries is numbered by position (routeIndex),
//     and restored by position too. On an arena base the route table
//     decodes straight to packed records, a *Route is boxed only for
//     what keeps a pointer (originations, queued announcements), once
//     per index, and each store loads its records in one pass
//     (snapRoutes, arenaStore.load).
//
// Policy func values (ImportDeny, ExportFilter, ExportBestOf) cannot
// be serialized; they come from the base network, and a fingerprint
// section digests all static topology/policy so RestoreNetwork can
// refuse a base that was not built identically.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"repro/internal/asn"
	"repro/internal/bgp/pathtab"
	"repro/internal/netutil"
	snap "repro/internal/snapshot"
	"repro/internal/vtime"
)

// Engine snapshot section IDs. File order is meta, fingerprint,
// paths, routes, speakers, queue, churn, dirty; secPaths got the next
// free ID when v2 introduced it, so IDs are not positional.
const (
	secMeta        = 1
	secFingerprint = 2
	secRoutes      = 3
	secSpeakers    = 4
	secQueue       = 5
	secChurn       = 6
	secDirty       = 7
	secPaths       = 8
)

// ErrSnapshotMismatch reports that a snapshot's topology/policy
// fingerprint does not match the base network it is being restored
// into.
var ErrSnapshotMismatch = errors.New("bgp: snapshot fingerprint does not match base network")

// Snapshot serializes the network's complete dynamic state to w in the
// RBGP format (see internal/snapshot/FORMAT.md). Snapshotting inside a
// Batch is an error: batched dirty-pair work has no stable on-disk
// meaning before the drain, so the file's dirty section is always
// empty.
func (n *Network) Snapshot(w io.Writer) error {
	data, err := n.snapshotBytes()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// snapshotBytes encodes the snapshot into one buffer, sized once from
// counts the network holds, with every section appended straight into
// it in file order.
func (n *Network) snapshotBytes() ([]byte, error) {
	if n.batchDepth != 0 {
		return nil, errors.New("bgp: Snapshot called inside Batch")
	}
	ri := newRouteIndex(n)
	pt, routeBytes := n.numberPaths(ri)
	sw := snap.NewWriter(snap.EngineMagic, snap.EngineVersion)
	sw.Grow(n.sizeHint(ri, pt, routeBytes))
	for _, sec := range []struct {
		id  byte
		enc func(e *snap.Enc)
	}{
		{secMeta, n.encodeMeta},
		{secFingerprint, n.encodeFingerprint},
		{secPaths, pt.encode},
		{secRoutes, func(e *snap.Enc) { encodeRoutes(e, ri, pt) }},
		{secSpeakers, func(e *snap.Enc) { n.encodeSpeakers(e, ri) }},
		{secQueue, func(e *snap.Enc) { n.encodeQueue(e, ri) }},
		{secChurn, func(e *snap.Enc) { encodeChurn(e, n.Churn.Records, pt) }},
		{secDirty, func(e *snap.Enc) { e.Uvarint(0) }}, // reserved, see FORMAT.md: the dirty queue, empty outside a Batch
	} {
		sec.enc(sw.Begin(sec.id))
		sw.End()
	}
	return sw.Bytes(), nil
}

// sectionOverhead is what a section costs the Writer's buffer beyond its
// payload while it is open: the id byte, the room left for the uvarint
// length, and the CRC.
const sectionOverhead = 1 + binary.MaxVarintLen64 + 4

// sizeHint bounds the encoded snapshot, header aside, from counts the
// network already holds, so the Writer's buffer is allocated once. The
// route table (routeBytes, summed while its paths were numbered) and
// the path table are exact; every other term is an upper bound,
// uvarints included.
func (n *Network) sizeHint(ri *routeIndex, pt *snapPaths, routeBytes int) int {
	idx := uvarintLen(uint64(ri.n) + 1) // widest route reference
	pathID := uvarintLen(uint64(len(pt.list)))
	count := func(c int) int { return uvarintLen(uint64(c)) }
	size := 8*sectionOverhead +
		5*8 + 1 + 9*8 + // meta
		2*count(len(n.order)) + // the fingerprint's and the speakers section's speaker counts
		pt.size() + routeBytes +
		count(len(ri.queue)) + len(ri.queue)*(8+8+4+4+5+idx+1+1) +
		count(len(n.Churn.Records)) + len(n.Churn.Records)*(8+4+4+5+1+pathID) +
		1 // the dirty section's zero count
	for i, id := range n.order {
		s := n.speakers[id]
		size += 4 + 4 + count(len(s.Name)) + len(s.Name) + 1 + count(len(s.sessions)) // fingerprint
		size += 4 + count(len(s.originated)) + len(s.originated)*(5+idx)
		for t, refs := range ri.ribs[i] {
			key := 5 + 4
			if t == 1 {
				key = 5 // the loc-RIB's prefix-only keys
			}
			size += count(len(refs)) + len(refs)*(key+idx)
		}
		// Every MRAI state is counted as a pending key too.
		size += count(len(s.rfd)) + len(s.rfd)*(9+25) +
			count(s.nSuppressed) + s.nSuppressed*9 +
			2*count(len(s.mrai)) + len(s.mrai)*(9+8+9) +
			count(len(s.medSeen)) + len(s.medSeen)*5 +
			1 + count(len(s.sessions))
		for i := range s.sessions {
			pc := s.sessions[i].pc
			size += 4 + 4 + 1 + 4 + 1 + 4 + 8 + 8 + 4 + 1 + 3 + // fingerprint
				count(pc.ExportAddCommunities.Len()) + 4*pc.ExportAddCommunities.Len() +
				4 + 8 + 1 + count(len(pc.PrefixPrepend)) + len(pc.PrefixPrepend)*13 // speakers
			if pc.RFD != nil {
				size += 5 * 8
			}
		}
	}
	return size
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// RestoreNetwork decodes an RBGP snapshot from r and installs its
// state into base, which must be a freshly built network with the
// identical topology and policy (same builder, same seed): the
// snapshot's fingerprint is verified against base before any state is
// touched, and a decode error leaves base unmodified. Metrics wiring,
// CollectorFeedDown, and policy functions are kept from base. Like
// Snapshot it is an error inside a Batch, whose end would drain into
// the restored state. A *bytes.Buffer is decoded in place and drained
// (snapshot.ReadSections); the restored network keeps none of its
// bytes, so the caller may reuse the buffer at once.
func RestoreNetwork(r io.Reader, base *Network) error {
	if base.batchDepth != 0 {
		return errors.New("bgp: RestoreNetwork called inside Batch")
	}
	if base.jr != nil {
		return errors.New("bgp: RestoreNetwork into a network with an open journal")
	}
	sections, err := snap.ReadSections(r, snap.EngineMagic, snap.EngineVersion)
	if err != nil {
		return err
	}
	wantIDs := []byte{secMeta, secFingerprint, secPaths, secRoutes, secSpeakers, secQueue, secChurn, secDirty}
	if len(sections) != len(wantIDs) {
		return fmt.Errorf("%w: got %d sections, want %d", snap.ErrCorrupt, len(sections), len(wantIDs))
	}
	for i, id := range wantIDs {
		if sections[i].ID != id {
			return fmt.Errorf("%w: section %d has id 0x%02x, want 0x%02x", snap.ErrCorrupt, i, sections[i].ID, id)
		}
	}
	meta, err := decodeMeta(sections[0].Payload)
	if err != nil {
		return err
	}
	if !base.fingerprintEquals(sections[1].Payload) {
		return ErrSnapshotMismatch
	}
	paths, err := decodePaths(sections[2].Payload)
	if err != nil {
		return err
	}
	routes, err := decodeRoutes(sections[3].Payload, paths, base.compact)
	if err != nil {
		return err
	}
	spks, err := decodeSpeakers(sections[4].Payload, base, routes)
	if err != nil {
		return err
	}
	queue, queueRoutes, err := decodeQueue(sections[5].Payload, routes)
	if err != nil {
		return err
	}
	if err := checkFlushes(spks, queue); err != nil {
		return err
	}
	churn, err := decodeChurn(sections[6].Payload, paths)
	if err != nil {
		return err
	}
	if err := decodeDirty(sections[7].Payload); err != nil {
		return err
	}

	// Everything decoded and validated; apply atomically.
	base.clock = meta.clock
	base.eventsProcessed = meta.eventsProcessed
	base.DefaultDelay = meta.defaultDelay
	base.inc = meta.inc
	base.Churn = ChurnLog{Records: churn, TotalMessages: meta.churnTotal}
	clear(base.inflight)
	base.inflight, base.freeSlots = base.inflight[:0], base.freeSlots[:0]
	for i, r := range queueRoutes {
		queue[i].V.route = base.park(r)
	}
	base.queue.Restore(queue, meta.seq)
	for _, st := range spks {
		st.apply(routes)
	}
	base.gen++ // the sessions' prepends and down flags are the snapshot's
	return nil
}

// --- meta section ---

type metaState struct {
	clock           Time
	seq             uint64
	eventsProcessed int
	defaultDelay    Time
	churnTotal      int
	inc             IncStats
}

func (n *Network) encodeMeta(e *snap.Enc) {
	e.I64(int64(n.clock))
	e.U64(n.queue.Seq())
	e.U64(uint64(n.eventsProcessed))
	e.I64(int64(n.DefaultDelay))
	e.Bool(true) // reserved, see FORMAT.md: where the two-path engine recorded its mode
	e.U64(uint64(n.Churn.TotalMessages))
	// IncStats, fixed-width so payload size does not vary with the counts.
	for _, v := range n.inc.fields() {
		e.I64(v)
	}
}

func decodeMeta(payload []byte) (metaState, error) {
	d := snap.NewDec(payload)
	var m metaState
	m.clock = Time(d.I64())
	m.seq = d.U64()
	m.eventsProcessed = int(d.U64())
	m.defaultDelay = Time(d.I64())
	d.Bool() // reserved engine-mode byte
	m.churnTotal = int(d.U64())
	st := make([]int64, 9)
	for i := range st {
		st[i] = d.I64()
	}
	m.inc = IncStats{
		DecisionRuns: st[0], BestChanges: st[1], FullScans: st[2],
		FastPath: st[3], NoopDecisions: st[5], // st[4] is reserved
		DirtyPairs: st[6], DirtyEvals: st[7], SuppressedProps: st[8],
	}
	return m, d.Done()
}

// fields returns the stats in their fixed serialization order; the
// zero is the reserved slot of the removed decision-cache hit counter.
func (s IncStats) fields() []int64 {
	return []int64{
		s.DecisionRuns, s.BestChanges, s.FullScans,
		s.FastPath, 0, s.NoopDecisions,
		s.DirtyPairs, s.DirtyEvals, s.SuppressedProps,
	}
}

// --- fingerprint section ---

// walkFingerprint digests static topology and policy: everything a
// restore must take from the base network rather than the snapshot.
// Dynamic per-peer settings (ExportPrepend, PrefixPrepend, session
// down) are deliberately excluded — they are state, carried in the
// speakers section. The digest is yielded in chunks — the speaker
// count, then one speaker at a time — from a buffer the next chunk
// reuses, so a consumer that only compares never holds a fingerprint-
// sized allocation; it stops when yield returns false. It is computed
// on every call, never cached: PeerConfigs are reachable by pointer
// and setters mutate fingerprinted fields.
func (n *Network) walkFingerprint(yield func(chunk []byte) bool) {
	var e snap.Enc
	e.Uvarint(uint64(len(n.order)))
	if !yield(e.Bytes()) {
		return
	}
	for _, id := range n.order {
		e.Reset()
		s := n.speakers[id]
		e.U32(uint32(s.ID))
		e.U32(uint32(s.AS))
		e.String(s.Name)
		e.Bool(s.Collector)
		e.Uvarint(uint64(len(s.sessions)))
		for i := range s.sessions {
			pc := s.sessions[i].pc
			e.U32(uint32(pc.Neighbor))
			e.U32(uint32(pc.NeighborAS))
			e.U8(uint8(pc.ClassifyAs))
			e.U32(pc.ImportLocalPref)
			e.U8(uint8(pc.ExportAllow))
			e.U32(pc.ExportMED)
			e.I64(int64(pc.Delay))
			e.I64(int64(pc.MRAI))
			e.U32(pc.IGPCost)
			e.Bool(pc.RFD != nil)
			if pc.RFD != nil {
				e.F64(pc.RFD.PenaltyPerFlap)
				e.F64(pc.RFD.SuppressThreshold)
				e.F64(pc.RFD.ReuseThreshold)
				e.I64(int64(pc.RFD.HalfLife))
				e.I64(int64(pc.RFD.MaxSuppress))
			}
			encCommunities(&e, pc.ExportAddCommunities)
			// Presence bits for the non-serializable policy funcs: a base
			// built without (or with different) filters is a different
			// network even if all data matches.
			e.Bool(pc.ImportDeny != nil)
			e.Bool(pc.ExportFilter != nil)
			e.Bool(pc.ExportBestOf != nil)
		}
		if !yield(e.Bytes()) {
			return
		}
	}
}

// encodeFingerprint writes the fingerprint section of a snapshot.
func (n *Network) encodeFingerprint(e *snap.Enc) {
	n.walkFingerprint(func(chunk []byte) bool {
		e.Raw(chunk)
		return true
	})
}

// fingerprintEquals reports whether n's fingerprint is exactly want (a
// snapshot's fingerprint section), comparing chunk by chunk in place
// and stopping at the first difference.
func (n *Network) fingerprintEquals(want []byte) bool {
	equal := true
	n.walkFingerprint(func(chunk []byte) bool {
		equal = len(chunk) <= len(want) && bytes.Equal(chunk, want[:len(chunk)])
		if equal {
			want = want[len(chunk):]
		}
		return equal
	})
	return equal && len(want) == 0
}

// --- route table ---

// routeIndex assigns one index per distinct installed route, in
// canonical traversal order: per speaker (ascending ID) originated →
// adj-RIB-in → loc-RIB → adj-RIB-out, then queued events in (at, seq)
// order. First sighting wins, so shared pointers share an index.
//
// Two kinds of route are numbered. A *Route — an origination, a row
// table's entry, a queued announcement — goes through the pointer map.
// An arena store's entry is numbered by position: the store never hands
// out a pointer that anything else holds (Get boxes afresh, and nothing
// parks or originates a box), so its k-th entry in sorted order is
// simply the next index, and its fields are read from the packed record
// when the route table is written. Nothing is boxed. An arena store's
// walk is one sort of integer keys over the ranks of the network's
// prefix index (arenaStore.sorted), which the first arena store ranks
// and every later one reuses; ranks and sort buffer die with the
// index.
//
// That numbering walk is the only walk of the stores a snapshot makes:
// it records each store's entries, and each speaker's originations
// sorted once, as it goes, and the route table and the speakers section
// are written from the record.
type routeIndex struct {
	idx  map[*Route]uint32 // every numbered *Route
	list []*Route          // the numbered *Routes in index order
	runs []routeRun        // the route table in index order
	n    uint32            // routes numbered so far
	// ribs[i] is speaker n.order[i]'s adj-RIB-in, loc-RIB and
	// adj-RIB-out, each in sorted key order: windows onto one slice.
	ribs [][3][]ribRef
	// orig[i] is the prefixes speaker n.order[i] originates, sorted
	// once for the route table and the speakers section alike.
	orig [][]netutil.Prefix
	// ranks orders an arena network's prefix index and holds the one
	// sort buffer every arena store's walk reuses.
	ranks prefixRanks
	// queue is the pending events in (At, Seq) order.
	queue []vtime.Item[event]
}

// routeRun is one stretch of the route table: the next boxed entries
// of list, then, when ar is set, one arena store's records.
type routeRun struct {
	boxed int
	ar    *speakerArena
	recs  []ribRef
}

// ribRef is one RIB table entry as the speakers section stores it: the
// store key and the route's index in the route table, plus the arena
// slot holding an arena store's record.
type ribRef struct {
	k    ribKey
	idx  uint32
	slot uint32
}

func newRouteIndex(n *Network) *routeIndex {
	queue := n.queue.Sorted()
	// Presize for what the walk will hold: every store entry in refs,
	// every origination in orig, and in the pointer map every
	// origination and queued route, plus every entry when the stores
	// are row tables. An arena network's sort buffer holds a key per
	// prefix of the index, or per entry of the widest store.
	entries, origs, widest := 0, 0, 0
	for _, s := range n.speakers {
		origs += len(s.originated)
		entries += s.adjIn.Len() + s.locRib.Len() + s.adjOut.Len()
		widest = max(widest, s.adjIn.Len(), s.locRib.Len(), s.adjOut.Len())
	}
	boxed := len(queue) + origs
	if !n.compact {
		boxed += entries
	}
	ri := &routeIndex{
		idx:   make(map[*Route]uint32, boxed),
		list:  make([]*Route, 0, boxed),
		ribs:  make([][3][]ribRef, len(n.order)),
		orig:  make([][]netutil.Prefix, len(n.order)),
		queue: queue,
	}
	if n.compact {
		ri.ranks.keys = make([]uint64, 0, max(widest, len(n.ribBE.prefixes.list)))
	}
	refs := make([]ribRef, 0, entries)
	orig := make([]netutil.Prefix, 0, origs)
	for i, id := range n.order {
		s := n.speakers[id]
		start := len(orig)
		for p := range s.originated {
			orig = append(orig, p)
		}
		netutil.SortPrefixes(orig[start:])
		ri.orig[i] = orig[start:len(orig):len(orig)]
		for _, p := range ri.orig[i] {
			ri.add(s.originated[p].route)
		}
		for t, st := range [3]ribStore{s.adjIn, s.locRib, s.adjOut} {
			start := len(refs)
			refs = st.appendSorted(refs, ri)
			ri.ribs[i][t] = refs[start:len(refs):len(refs)]
		}
	}
	for _, it := range queue {
		if r := n.parked(it.V.route); r != nil {
			ri.add(r)
		}
	}
	return ri
}

// add numbers r on first sight and returns its index.
func (ri *routeIndex) add(r *Route) uint32 {
	i, ok := ri.idx[r]
	if !ok {
		i = ri.n
		ri.n++
		ri.idx[r] = i
		ri.list = append(ri.list, r)
		ri.tail().boxed++
	}
	return i
}

// addRecords numbers an arena store's entries, in sorted key order, by
// position.
func (ri *routeIndex) addRecords(ar *speakerArena, recs []ribRef) {
	if len(recs) == 0 {
		return
	}
	for j := range recs {
		recs[j].idx = ri.n
		ri.n++
	}
	run := ri.tail()
	run.ar, run.recs = ar, recs
}

// tail returns the run the next routes join: the last one, unless an
// arena store's records already close it.
func (ri *routeIndex) tail() *routeRun {
	if len(ri.runs) == 0 || ri.runs[len(ri.runs)-1].ar != nil {
		ri.runs = append(ri.runs, routeRun{})
	}
	return &ri.runs[len(ri.runs)-1]
}

// eachRoute visits the route table in index order: a *Route, or an
// arena record under its key.
func (ri *routeIndex) eachRoute(boxed func(r *Route), packed func(ar *speakerArena, ref ribRef)) {
	list := ri.list
	for _, run := range ri.runs {
		for _, r := range list[:run.boxed] {
			boxed(r)
		}
		list = list[run.boxed:]
		for _, ref := range run.recs {
			packed(run.ar, ref)
		}
	}
}

// numberPaths builds the snapshot's path table: the paths the route
// table and the churn log reference, numbered in first-appearance order
// (route-table order, then churn order), so identical networks produce
// identical tables. Numbering them before anything is written lets the
// paths section precede its referers in one buffer. The numbers of the
// boxed routes' and the churn records' paths are kept for the encoders,
// so each such path is looked up once. It also returns the route
// table's encoded size.
func (n *Network) numberPaths(ri *routeIndex) (pt *snapPaths, routeBytes int) {
	pt = newSnapPaths(n.ribBE)
	routeBytes = uvarintLen(uint64(ri.n))
	add := func(pathID pathtab.ID, comms int) {
		routeBytes += routeFixedBytes + uvarintLen(uint64(pathID)) + uvarintLen(uint64(comms)) + 4*comms
	}
	pt.boxed = make([]pathtab.ID, 0, len(ri.list))
	ri.eachRoute(
		func(r *Route) {
			id := pt.id(r.Path)
			pt.boxed = append(pt.boxed, id)
			add(id, r.Communities.Len())
		},
		func(ar *speakerArena, ref ribRef) {
			rec := &ar.recs[ref.slot]
			comms := 0
			if rec.flags&prFlagHasComms != 0 {
				comms = ar.comms[ref.slot].Len()
			}
			add(pt.netID(rec.pathID), comms)
		})
	pt.churn = make([]pathtab.ID, len(n.Churn.Records))
	for i, rec := range n.Churn.Records {
		pt.churn[i] = pt.id(rec.Path)
	}
	return pt, routeBytes
}

// ref encodes a nilable route reference as index+1 (0 = nil).
func (ri *routeIndex) ref(r *Route) uint64 {
	if r == nil {
		return 0
	}
	i, ok := ri.idx[r]
	if !ok {
		panic("bgp: snapshot route index missed a traversal path")
	}
	return uint64(i) + 1
}

// must encodes a non-nil route reference as its bare index.
func (ri *routeIndex) must(r *Route) uint64 { return ri.ref(r) - 1 }

// snapPaths is a snapshot's path table: every path the route table and
// the churn log reference, numbered from 1 in first-appearance order.
// On an arena network a path the network's own table holds (every
// record's, and nearly every other) is numbered through a slice indexed
// by its network ID, which costs no key and no copy; the rest go
// through a local pathtab.Table. A path is in exactly one of the two,
// so equal paths always share a number.
type snapPaths struct {
	net     *pathtab.Table // the arena network's table; nil on the row table
	byNet   []pathtab.ID   // network ID → snapshot ID, 0 until numbered
	local   *pathtab.Table // paths net does not hold
	byLocal []pathtab.ID   // local ID-1 → snapshot ID
	list    []asn.Path     // snapshot ID-1 → path
	boxed   []pathtab.ID   // the route index's boxed routes' IDs, in list order
	churn   []pathtab.ID   // the churn records' IDs, in log order
}

func newSnapPaths(be *ribBackend) *snapPaths {
	pt := &snapPaths{local: pathtab.New()}
	if be != nil {
		pt.net = be.paths
		pt.byNet = make([]pathtab.ID, be.paths.Len()+1)
	}
	return pt
}

// netID numbers the network table's path x.
func (pt *snapPaths) netID(x pathtab.ID) pathtab.ID {
	if x == pathtab.Empty {
		return pathtab.Empty
	}
	if id := pt.byNet[x]; id != 0 {
		return id
	}
	pt.list = append(pt.list, pt.net.Resolve(x))
	pt.byNet[x] = pathtab.ID(len(pt.list))
	return pt.byNet[x]
}

// id numbers path p.
func (pt *snapPaths) id(p asn.Path) pathtab.ID {
	if len(p) == 0 {
		return pathtab.Empty
	}
	if pt.net != nil {
		if x, ok := pt.net.Lookup(p); ok {
			return pt.netID(x)
		}
	}
	l := pt.local.Intern(p)
	if int(l) > len(pt.byLocal) {
		pt.list = append(pt.list, pt.local.Resolve(l))
		pt.byLocal = append(pt.byLocal, pathtab.ID(len(pt.list)))
	}
	return pt.byLocal[l-1]
}

// size is the paths section's encoded size.
func (pt *snapPaths) size() int {
	size := uvarintLen(uint64(len(pt.list)))
	for _, p := range pt.list {
		size += uvarintLen(uint64(len(p))) + 4*len(p)
	}
	return size
}

// encode writes the paths section: a count, then per path (IDs 1..count
// in order) a uvarint length and the AS words. The empty path is
// implicit as ID 0.
func (pt *snapPaths) encode(e *snap.Enc) {
	e.Uvarint(uint64(len(pt.list)))
	for _, p := range pt.list {
		e.Uvarint(uint64(len(p)))
		for _, a := range p {
			e.U32(uint32(a))
		}
	}
}

// decodePaths returns the table as a slice: paths[i] is ID i+1.
func decodePaths(payload []byte) ([]asn.Path, error) {
	d := snap.NewDec(payload)
	n := d.Count(1)
	paths := make([]asn.Path, 0, n)
	for i := 0; i < n; i++ {
		pl := d.Count(4)
		if d.Err() == nil && pl == 0 {
			return nil, fmt.Errorf("%w: empty path in path table (ID 0 is implicit)", snap.ErrCorrupt)
		}
		p := make(asn.Path, pl)
		for j := range p {
			p[j] = asn.AS(d.U32())
		}
		paths = append(paths, p)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return paths, nil
}

// pathByID resolves a decoded path reference (0 = nil).
func pathByID(paths []asn.Path, id uint64, d *snap.Dec) (asn.Path, error) {
	if id == 0 || d.Err() != nil {
		return nil, d.Err()
	}
	if id > uint64(len(paths)) {
		return nil, fmt.Errorf("%w: path ID %d out of range (%d paths)", snap.ErrCorrupt, id, len(paths))
	}
	return paths[id-1], nil
}

// encodeRoutes writes the route table. An arena record is unpacked
// into one Route on the stack, so both kinds share one encoder.
func encodeRoutes(e *snap.Enc, ri *routeIndex, pt *snapPaths) {
	e.Uvarint(uint64(ri.n))
	var unpacked Route
	boxed := pt.boxed
	ri.eachRoute(
		func(r *Route) {
			encRoute(e, r, boxed[0])
			boxed = boxed[1:]
		},
		func(ar *speakerArena, ref ribRef) {
			ar.unpack(&unpacked, ref.k.prefix, ref.slot)
			encRoute(e, &unpacked, pt.netID(ar.recs[ref.slot].pathID))
		})
}

// routeFixedBytes is an encoded route's size but for its path ID and
// communities.
const routeFixedBytes = 5 + 1 + 4 + 4 + 1 + 4 + 4 + 1 + 4 + 8

// encRoute writes one route-table entry; pathID is r.Path's number in
// the snapshot's path table.
func encRoute(e *snap.Enc, r *Route, pathID pathtab.ID) {
	e.Prefix(r.Prefix)
	e.Uvarint(uint64(pathID))
	e.U8(uint8(r.Origin))
	e.U32(r.MED)
	e.U32(r.LocalPref)
	e.U8(uint8(r.Class))
	e.U32(uint32(r.From))
	e.U32(uint32(r.FromAS))
	e.Bool(r.EBGP)
	e.U32(r.IGPCost)
	e.I64(int64(r.LearnedAt))
	encCommunities(e, r.Communities)
}

// snapRoutes is a decoded route table. On a row-table base every route
// is boxed as it is read: the stores keep the pointers. On an arena base
// each is kept as what an arena store holds — a record, whose path is
// still a snapshot path ID, its prefix, and any communities in a side
// map — and a *Route is boxed only for what keeps a pointer
// (originations, queued announcements), once per index, so aliasing
// survives.
type snapRoutes struct {
	paths  []asn.Path              // the snapshot's path table: paths[i] is ID i+1
	boxed  []*Route                // index → route; on an arena base nil until boxed
	recs   []packedRoute           // arena base: index → record
	prefix []netutil.Prefix        // arena base: index → prefix
	comms  map[uint32]CommunitySet // arena base: index → communities, when any
	// netPaths maps a snapshot path ID to the network's, interning each
	// path into the network's table on its first use (0: not yet). The
	// loads use them in file order, so the network numbers its new
	// paths as an Install per entry would.
	netPaths []pathtab.ID
}

// decodeRoutes reads the route table; each route's path is a reference
// into the decoded path table. packed selects the arena base's form.
func decodeRoutes(payload []byte, paths []asn.Path, packed bool) (*snapRoutes, error) {
	d := snap.NewDec(payload)
	n := d.Count(20) // minimum encoded route size
	rt := &snapRoutes{paths: paths, boxed: make([]*Route, n)}
	if packed {
		rt.recs = make([]packedRoute, n)
		rt.prefix = make([]netutil.Prefix, n)
	}
	for i := range n {
		r, pathID, err := decRoute(d, paths)
		if err != nil {
			return nil, err
		}
		if !packed {
			rt.boxed[i] = new(Route)
			*rt.boxed[i] = r
			continue
		}
		rt.recs[i], rt.prefix[i] = packRoute(&r, pathID), r.Prefix
		if r.Communities.Len() > 0 {
			if rt.comms == nil {
				rt.comms = make(map[uint32]CommunitySet)
			}
			rt.comms[uint32(i)] = r.Communities
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return rt, nil
}

// decRoute reads one route-table entry; pathID is its path's number in
// the snapshot's path table.
func decRoute(d *snap.Dec, paths []asn.Path) (r Route, pathID pathtab.ID, err error) {
	if r.Prefix, err = d.Prefix(); err != nil {
		return r, 0, err
	}
	id := d.Uvarint()
	if r.Path, err = pathByID(paths, id, d); err != nil {
		return r, 0, err
	}
	r.Origin = Origin(d.U8())
	r.MED = d.U32()
	r.LocalPref = d.U32()
	r.Class = RouteClass(d.U8())
	r.From = RouterID(d.U32())
	r.FromAS = asn.AS(d.U32())
	r.EBGP = d.Bool()
	r.IGPCost = d.U32()
	r.LearnedAt = Time(d.I64())
	r.Communities = decCommunities(d)
	return r, pathtab.ID(id), nil
}

// route returns route i, boxing an arena base's record on first use.
func (rt *snapRoutes) route(i uint32) *Route {
	if r := rt.boxed[i]; r != nil {
		return r
	}
	rec := &rt.recs[i]
	var path asn.Path
	if rec.pathID != pathtab.Empty {
		path = rt.paths[rec.pathID-1]
	}
	r := new(Route)
	rec.unpack(r, rt.prefix[i], path, rt.comms[i])
	rt.boxed[i] = r
	return r
}

// from returns route i's From.
func (rt *snapRoutes) from(i uint32) RouterID {
	if rt.recs != nil {
		return RouterID(rt.recs[i].from)
	}
	return rt.boxed[i].From
}

// packed returns an arena base's route i as its record, its path
// numbered in the network's table paths, and its communities.
func (rt *snapRoutes) packed(i uint32, paths *pathtab.Table) (packedRoute, CommunitySet) {
	rec := rt.recs[i]
	if rec.pathID != pathtab.Empty {
		if rt.netPaths == nil {
			rt.netPaths = make([]pathtab.ID, len(rt.paths)+1)
		}
		x := rt.netPaths[rec.pathID]
		if x == 0 {
			x = paths.Intern(rt.paths[rec.pathID-1])
			rt.netPaths[rec.pathID] = x
		}
		rec.pathID = x
	}
	return rec, rt.comms[i]
}

// index checks a bare route index read from d.
func (rt *snapRoutes) index(idx uint64, d *snap.Dec) (uint32, error) {
	if d.Err() != nil {
		return 0, d.Err()
	}
	if idx >= uint64(len(rt.boxed)) {
		return 0, fmt.Errorf("%w: route index %d out of range (%d routes)", snap.ErrCorrupt, idx, len(rt.boxed))
	}
	return uint32(idx), nil
}

// routeAt resolves a bare index.
func (rt *snapRoutes) routeAt(idx uint64, d *snap.Dec) (*Route, error) {
	i, err := rt.index(idx, d)
	if err != nil {
		return nil, err
	}
	return rt.route(i), nil
}

// routeRef resolves an index+1 reference (0 = nil).
func (rt *snapRoutes) routeRef(ref uint64, d *snap.Dec) (*Route, error) {
	if ref == 0 {
		return nil, d.Err()
	}
	return rt.routeAt(ref-1, d)
}

// --- speakers section ---

// speakerState is one speaker's decoded dynamic state, held until the
// whole snapshot validates. The three RIBs stay in file order, which
// the decoder has checked is the sorted order apply loads in. A side
// table is made only when the snapshot lists entries for it.
type speakerState struct {
	s           *Speaker
	originated  map[netutil.Prefix]origination
	adjIn       []ribRef
	locRib      []ribRef
	adjOut      []ribRef
	rfd         map[ribKey]rfdState
	nSuppressed int
	mrai        map[ribKey]mraiState
	medSeen     map[netutil.Prefix]bool
	peerDyn     []peerDynState
}

type peerDynState struct {
	pc            *PeerConfig
	exportPrepend int
	down          bool
	prefixPrepend map[netutil.Prefix]int
}

func (st *speakerState) apply(rt *snapRoutes) {
	s := st.s
	s.originated = st.originated
	// The RIBs load in sorted key order — adj-RIB-in first, so an arena
	// loc-RIB can share its records.
	s.adjIn.load(st.adjIn, rt)
	s.locRib.load(st.locRib, rt)
	s.adjOut.load(st.adjOut, rt)
	s.rfd = st.rfd
	s.nSuppressed = st.nSuppressed
	s.mrai = st.mrai
	s.medSeen = st.medSeen
	for _, pd := range st.peerDyn {
		pd.pc.ExportPrepend = pd.exportPrepend
		pd.pc.down = pd.down
		pd.pc.PrefixPrepend = pd.prefixPrepend
	}
}

// encodeSpeakers writes the speakers section. Its sorted key lists are
// built in two scratch slices every speaker reuses.
func (n *Network) encodeSpeakers(e *snap.Enc, ri *routeIndex) {
	var keys []ribKey
	var pfx []netutil.Prefix
	e.Uvarint(uint64(len(n.order)))
	for i, id := range n.order {
		s := n.speakers[id]
		e.U32(uint32(s.ID))

		e.Uvarint(uint64(len(ri.orig[i])))
		for _, p := range ri.orig[i] {
			e.Prefix(p)
			e.Uvarint(ri.must(s.originated[p].route))
		}

		encRouteTable(e, ri.ribs[i][0], false)
		encRouteTable(e, ri.ribs[i][1], true)
		encRouteTable(e, ri.ribs[i][2], false)

		// The damping states and the suppressed set, then the MRAI
		// last-sent times and the pending batches.
		keys = encStates(e, keys[:0], s.rfd, func(st rfdState) bool {
			e.F64(st.penalty)
			e.I64(int64(st.lastUpdate))
			e.Bool(st.suppressed)
			e.I64(int64(st.suppressAt))
			return st.suppressed
		})
		keys = encStates(e, keys[:0], s.mrai, func(st mraiState) bool {
			e.I64(int64(st.last))
			return st.pending
		})

		pfx = pfx[:0]
		for p, v := range s.medSeen {
			if v {
				pfx = append(pfx, p)
			}
		}
		netutil.SortPrefixes(pfx)
		e.Uvarint(uint64(len(pfx)))
		for _, p := range pfx {
			e.Prefix(p)
		}

		e.Uvarint(0) // reserved, see FORMAT.md: the removed decision cache's entry list

		e.Uvarint(uint64(len(s.sessions)))
		for i := range s.sessions {
			pc := s.sessions[i].pc
			e.U32(uint32(pc.Neighbor))
			e.I64(int64(pc.ExportPrepend))
			e.Bool(pc.down)
			pfx = pfx[:0]
			for p := range pc.PrefixPrepend {
				pfx = append(pfx, p)
			}
			netutil.SortPrefixes(pfx)
			e.Uvarint(uint64(len(pfx)))
			for _, p := range pfx {
				e.Prefix(p)
				e.I64(int64(pc.PrefixPrepend[p]))
			}
		}
	}
}

func decodeSpeakers(payload []byte, base *Network, routes *snapRoutes) ([]*speakerState, error) {
	d := snap.NewDec(payload)
	count := d.Count(5)
	if d.Err() == nil && count != len(base.order) {
		return nil, fmt.Errorf("%w: snapshot has %d speakers, base has %d", snap.ErrCorrupt, count, len(base.order))
	}
	out := make([]*speakerState, 0, count)
	for i := 0; i < count; i++ {
		id := RouterID(d.U32())
		s := base.speakers[id]
		if d.Err() == nil && s == nil {
			return nil, fmt.Errorf("%w: snapshot speaker %d not in base network", snap.ErrCorrupt, id)
		}
		st := &speakerState{s: s}

		var prev ribKey
		nOrig := d.Count(6)
		if nOrig > 0 {
			st.originated = make(map[netutil.Prefix]origination, nOrig)
		}
		for j := 0; j < nOrig; j++ {
			p, err := decPrefixAfter(d, j, &prev)
			if err != nil {
				return nil, err
			}
			r, err := routes.routeAt(d.Uvarint(), d)
			if err != nil {
				return nil, err
			}
			st.originated[p] = origination{route: r}
		}

		var err error
		if st.adjIn, err = decRouteEntries(d, routes, s); err != nil {
			return nil, err
		}
		// An adj-RIB-in entry holds what its key's neighbor sent: the
		// arena chains the entries by that From, and the decision's
		// damping lookups key on it.
		for _, e := range st.adjIn {
			if from := routes.from(e.idx); from != e.k.neighbor {
				return nil, fmt.Errorf("%w: speaker %d's adj-RIB-in entry %s/%d holds a route from %d", snap.ErrCorrupt, id, e.k.prefix, e.k.neighbor, from)
			}
		}
		if st.locRib, err = decRouteEntries(d, routes, nil); err != nil {
			return nil, err
		}
		if st.adjOut, err = decRouteEntries(d, routes, s); err != nil {
			return nil, err
		}

		nRfd := d.Count(9 + 25)
		if nRfd > 0 {
			st.rfd = make(map[ribKey]rfdState, nRfd)
		}
		for j := 0; j < nRfd; j++ {
			k, err := decKeyAfter(d, j, &prev)
			if err != nil {
				return nil, err
			}
			rs := rfdState{
				penalty:    d.F64(),
				lastUpdate: Time(d.I64()),
				suppressed: d.Bool(),
				suppressAt: Time(d.I64()),
			}
			st.rfd[k] = rs
			if rs.suppressed {
				st.nSuppressed++
			}
		}

		// The suppressed set lists the damping states' set bits again:
		// a key is in it exactly when its state is suppressed.
		nSup := d.Count(9)
		for j := 0; j < nSup; j++ {
			k, err := decKeyAfter(d, j, &prev)
			if err != nil {
				return nil, err
			}
			if !st.rfd[k].suppressed && d.Err() == nil {
				return nil, fmt.Errorf("%w: speaker %d suppresses %s/%d without suppressed damping state", snap.ErrCorrupt, id, k.prefix, k.neighbor)
			}
		}
		if st.nSuppressed != nSup && d.Err() == nil {
			return nil, fmt.Errorf("%w: speaker %d has %d suppressed damping states and %d suppressed keys", snap.ErrCorrupt, id, st.nSuppressed, nSup)
		}

		nMrai := d.Count(9 + 8)
		if nMrai > 0 {
			st.mrai = make(map[ribKey]mraiState, nMrai)
		}
		for j := 0; j < nMrai; j++ {
			k, err := decKeyAfter(d, j, &prev)
			if err != nil {
				return nil, err
			}
			st.mrai[k] = mraiState{last: Time(d.I64())}
		}

		// exportToPeer opens a batch only after an update went out.
		for j, nPending := 0, d.Count(9); j < nPending; j++ {
			k, err := decKeyAfter(d, j, &prev)
			if err != nil {
				return nil, err
			}
			ms, ok := st.mrai[k]
			if !ok && d.Err() == nil {
				return nil, fmt.Errorf("%w: speaker %d's MRAI batch %s/%d has no last-sent time", snap.ErrCorrupt, id, k.prefix, k.neighbor)
			}
			ms.pending = true
			st.mrai[k] = ms
		}

		nMed := d.Count(5)
		if nMed > 0 {
			st.medSeen = make(map[netutil.Prefix]bool, nMed)
		}
		for j := 0; j < nMed; j++ {
			p, err := decPrefixAfter(d, j, &prev)
			if err != nil {
				return nil, err
			}
			st.medSeen[p] = true
		}

		// Reserved: the removed decision cache's entry count. No writer
		// has listed entries since the cache went; one that does is not
		// a snapshot this engine wrote.
		if nCache := d.Uvarint(); nCache != 0 && d.Err() == nil {
			return nil, fmt.Errorf("%w: reserved decision-cache count is %d, want 0", snap.ErrCorrupt, nCache)
		}

		nPeers := d.Count(14)
		st.peerDyn = make([]peerDynState, 0, nPeers)
		for j := 0; j < nPeers; j++ {
			nb := RouterID(d.U32())
			var pc *PeerConfig
			if s != nil {
				pc = s.Peer(nb)
			}
			if d.Err() == nil && pc == nil {
				return nil, fmt.Errorf("%w: snapshot peer %d of speaker %d not in base network", snap.ErrCorrupt, nb, id)
			}
			pd := peerDynState{
				pc:            pc,
				exportPrepend: int(d.I64()),
				down:          d.Bool(),
			}
			nPfx := d.Count(13)
			if nPfx > 0 {
				pd.prefixPrepend = make(map[netutil.Prefix]int, nPfx)
			}
			for c := 0; c < nPfx; c++ {
				p, err := decPrefixAfter(d, c, &prev)
				if err != nil {
					return nil, err
				}
				pd.prefixPrepend[p] = int(d.I64())
			}
			st.peerDyn = append(st.peerDyn, pd)
		}

		out = append(out, st)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// --- queue section ---

// encodeQueue serializes the pending events in (At, Seq) order — the
// vtime.Queue.Sorted traversal — with each item's due time and
// sequence number written explicitly, so the wire format is identical
// to the pre-vtime eventHeap encoding byte for byte.
func (n *Network) encodeQueue(e *snap.Enc, ri *routeIndex) {
	e.Uvarint(uint64(len(ri.queue)))
	for _, it := range ri.queue {
		ev := &it.V
		e.I64(int64(it.At))
		e.U64(it.Seq)
		e.U32(uint32(ev.to))
		e.U32(uint32(ev.from))
		e.Prefix(ev.prefix)
		e.Uvarint(ri.ref(n.parked(ev.route)))
		e.Bool(ev.rfd)
		e.Bool(ev.mrai)
	}
}

// decodeQueue returns the pending events and, beside them, the route
// each announces (nil for withdrawals and timers): slots in
// Network.inflight are the restoring network's to assign.
func decodeQueue(payload []byte, routes *snapRoutes) ([]vtime.Item[event], []*Route, error) {
	d := snap.NewDec(payload)
	n := d.Count(32)
	q := make([]vtime.Item[event], 0, n)
	qr := make([]*Route, 0, n)
	for i := 0; i < n; i++ {
		it := vtime.Item[event]{
			At:  vtime.Time(d.I64()),
			Seq: d.U64(),
		}
		ev := &it.V
		ev.to = RouterID(d.U32())
		ev.from = RouterID(d.U32())
		var err error
		if ev.prefix, err = d.Prefix(); err != nil {
			return nil, nil, err
		}
		r, err := routes.routeRef(d.Uvarint(), d)
		if err != nil {
			return nil, nil, err
		}
		ev.rfd = d.Bool()
		ev.mrai = d.Bool()
		q = append(q, it)
		qr = append(qr, r)
	}
	if err := d.Done(); err != nil {
		return nil, nil, err
	}
	return q, qr, nil
}

// checkFlushes holds the speakers' MRAI batches to the queue: every
// pending key has exactly one queued flush timer for the same
// (speaker, neighbor, prefix), and every queued flush has its pending
// key. exportToPeer queues the timer when it sets the key and the
// timer's delivery clears it; a pending key with no timer would hold
// the session's exports of that prefix back for good.
func checkFlushes(spks []*speakerState, queue []vtime.Item[event]) error {
	type flush struct {
		at RouterID
		k  ribKey
	}
	timers := make(map[flush]int)
	for i := range queue {
		if ev := &queue[i].V; ev.mrai {
			timers[flush{ev.to, ribKey{prefix: ev.prefix, neighbor: ev.from}}]++
		}
	}
	for _, st := range spks {
		for k, ms := range st.mrai {
			if !ms.pending {
				continue
			}
			f := flush{st.s.ID, k}
			if n := timers[f]; n != 1 {
				return fmt.Errorf("%w: speaker %d's MRAI batch %s/%d has %d queued flushes, want 1",
					snap.ErrCorrupt, f.at, k.prefix, k.neighbor, n)
			}
			delete(timers, f)
		}
	}
	if len(timers) != 0 {
		return fmt.Errorf("%w: %d queued MRAI flushes have no pending batch", snap.ErrCorrupt, len(timers))
	}
	return nil
}

// --- churn section ---

func encodeChurn(e *snap.Enc, recs []UpdateRecord, pt *snapPaths) {
	e.Uvarint(uint64(len(recs)))
	for i, rec := range recs {
		e.I64(int64(rec.At))
		e.U32(uint32(rec.Collector))
		e.U32(uint32(rec.PeerAS))
		e.Prefix(rec.Prefix)
		e.Bool(rec.Announce)
		e.Uvarint(uint64(pt.churn[i]))
	}
}

// decodeChurn reads the churn log; paths are path-table references.
func decodeChurn(payload []byte, paths []asn.Path) ([]UpdateRecord, error) {
	d := snap.NewDec(payload)
	n := d.Count(23) // minimum encoded record size
	var recs []UpdateRecord
	if n > 0 {
		recs = make([]UpdateRecord, 0, n)
	}
	for i := 0; i < n; i++ {
		rec := UpdateRecord{
			At:        Time(d.I64()),
			Collector: RouterID(d.U32()),
			PeerAS:    asn.AS(d.U32()),
		}
		var err error
		if rec.Prefix, err = d.Prefix(); err != nil {
			return nil, err
		}
		rec.Announce = d.Bool()
		if rec.Path, err = pathByID(paths, d.Uvarint(), d); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return recs, nil
}

// --- dirty section ---

// decodeDirty checks the reserved dirty section: its count must be 0.
// Snapshot refuses to run inside a Batch and a setter outside one
// drains at once, so no writer has a dirty pair to list; one that does
// is not a snapshot this engine wrote.
func decodeDirty(payload []byte) error {
	d := snap.NewDec(payload)
	if n := d.Uvarint(); n != 0 && d.Err() == nil {
		return fmt.Errorf("%w: reserved dirty-queue count is %d, want 0", snap.ErrCorrupt, n)
	}
	return d.Done()
}

// --- shared primitives ---

func encRibKey(e *snap.Enc, k ribKey) {
	e.Prefix(k.prefix)
	e.U32(uint32(k.neighbor))
}

func decRibKey(d *snap.Dec) (ribKey, error) {
	p, err := d.Prefix()
	if err != nil {
		return ribKey{}, err
	}
	return ribKey{prefix: p, neighbor: RouterID(d.U32())}, nil
}

func encCommunities(e *snap.Enc, cs CommunitySet) {
	e.Uvarint(uint64(len(cs.cs)))
	for _, c := range cs.cs {
		e.U32(uint32(c))
	}
}

func decCommunities(d *snap.Dec) CommunitySet {
	n := d.Count(4)
	if n == 0 {
		return CommunitySet{}
	}
	vals := make([]Community, n)
	for i := range vals {
		vals[i] = Community(d.U32())
	}
	return NewCommunitySet(vals...)
}

// encRouteTable emits one RIB table from the entries the route index
// recorded, which are in sorted key order. loc selects the loc-RIB's
// prefix-only keys (its neighbor component is always 0).
func encRouteTable(e *snap.Enc, refs []ribRef, loc bool) {
	e.Uvarint(uint64(len(refs)))
	for _, ref := range refs {
		if loc {
			e.Prefix(ref.k.prefix)
		} else {
			encRibKey(e, ref.k)
		}
		e.Uvarint(uint64(ref.idx))
	}
}

// decRouteEntries reads one RIB table in file order. Keys must be
// strictly increasing — the order encRouteTable wrote them in — so
// apply can install the entries as they come; anything else, a
// duplicate included, is corruption, and so is an adj-RIB key whose
// neighbor is not a session of s. A nil s selects the loc-RIB's
// prefix-only keys.
func decRouteEntries(d *snap.Dec, routes *snapRoutes, s *Speaker) ([]ribRef, error) {
	loc := s == nil
	minEntry := 10
	if loc {
		minEntry = 6
	}
	n := d.Count(minEntry)
	entries := make([]ribRef, 0, n)
	var prev ribKey
	for j := 0; j < n; j++ {
		var k ribKey
		var err error
		if loc {
			k.prefix, err = decPrefixAfter(d, j, &prev)
		} else {
			k, err = decKeyAfter(d, j, &prev)
		}
		if err != nil {
			return nil, err
		}
		if !loc && s.session(k.neighbor) == nil {
			return nil, fmt.Errorf("%w: RIB key %s/%d names no session of the speaker", snap.ErrCorrupt, k.prefix, k.neighbor)
		}
		idx, err := routes.index(d.Uvarint(), d)
		if err != nil {
			return nil, err
		}
		entries = append(entries, ribRef{k: k, idx: idx})
	}
	return entries, d.Err()
}

// encStates emits two tables from one sort of m's keys, through the
// scratch slice keys, which it returns: every entry, its key then what
// enc writes of its value, and then the set of keys whose value enc
// flags. The decoder reads both with decKeyAfter.
func encStates[V any](e *snap.Enc, keys []ribKey, m map[ribKey]V, enc func(V) bool) []ribKey {
	keys = sortedKeys(keys, m)
	e.Uvarint(uint64(len(keys)))
	set := keys[:0] // filtered in place: never ahead of the read
	for _, k := range keys {
		encRibKey(e, k)
		if enc(m[k]) {
			set = append(set, k)
		}
	}
	e.Uvarint(uint64(len(set)))
	for _, k := range set {
		encRibKey(e, k)
	}
	return keys
}

// decKeyAfter reads the j-th key of a keyed table of the speakers
// section, which must sort strictly after *prev, the key before it,
// and leaves it in *prev. Every such table — the RIBs and the side
// tables alike — is written in strictly increasing key order; a key
// out of order, a duplicate included, is not a snapshot this engine
// wrote.
func decKeyAfter(d *snap.Dec, j int, prev *ribKey) (ribKey, error) {
	k, err := decRibKey(d)
	if err != nil || d.Err() != nil {
		return k, err
	}
	if j > 0 && prev.compare(k) >= 0 {
		return k, fmt.Errorf("%w: key %s/%d does not sort after %s/%d",
			snap.ErrCorrupt, k.prefix, k.neighbor, prev.prefix, prev.neighbor)
	}
	*prev = k
	return k, nil
}

// decPrefixAfter is decKeyAfter for the tables keyed by prefix alone.
func decPrefixAfter(d *snap.Dec, j int, prev *ribKey) (netutil.Prefix, error) {
	p, err := d.Prefix()
	if err != nil || d.Err() != nil {
		return p, err
	}
	if k := (ribKey{prefix: p}); j > 0 && prev.compare(k) >= 0 {
		return p, fmt.Errorf("%w: prefix %s does not sort after %s", snap.ErrCorrupt, p, prev.prefix)
	}
	*prev = ribKey{prefix: p}
	return p, nil
}

// sortRibKeysStable orders by (prefix, neighbor); the serialization
// twin of the test helper sortRibKeys.
func sortRibKeysStable(keys []ribKey) { slices.SortFunc(keys, ribKey.compare) }

// sortedKeys appends m's keys to out, sorted.
func sortedKeys[V any](out []ribKey, m map[ribKey]V) []ribKey {
	for k := range m {
		out = append(out, k)
	}
	sortRibKeysStable(out)
	return out
}
