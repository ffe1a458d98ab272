package bgp

import (
	"fmt"
	"slices"

	"repro/internal/asn"
	"repro/internal/bgp/pathtab"
	"repro/internal/netutil"
)

// The arena-backed RIB layout. At Internet scale (~80K ASes, ~1M
// prefixes) the default layout's per-route cost — a 56-byte Route
// header, its cells in a row, and an uninterned AS path slice — runs to
// several hundred bytes; a single full feed would not fit in cache and
// the full topology not in memory. The compact layout brings this to
// ~40-64 bytes per route:
//
//   - AS paths are interned once per network in a pathtab.Table and
//     referenced by 32-bit ID. After prepend cycling and re-export the
//     distinct-path count is orders of magnitude below the route
//     count, so path storage amortises to near zero per route.
//   - Prefixes are mapped to dense 32-bit indices by a network-wide
//     prefixIndex; store keys pack (prefixIdx, neighbor) into one
//     uint64, and route records drop the 8-byte prefix entirely.
//   - Each route becomes a fixed 40-byte packedRoute in a per-speaker
//     arena (a plain slice with a free list), not a heap object.
//   - The adj-RIB-in is indexed by prefix, not by key: each prefix's
//     records form a chain through the arena in neighbor order (see
//     arenaStore). The decision's scan of a prefix's candidates
//     (appendRoutes) then costs what the candidates cost, not one
//     lookup per session: a collector with hundreds of sessions
//     holds about one route per prefix.
//   - The loc-RIB is delta-encoded against adj-RIB-in: selecting a
//     route does not copy it. The loc-RIB slot refcounts the winning
//     adj-RIB-in record whenever the values agree (they always do on
//     the install path, since runDecision installs the candidate it
//     scanned), so a selected route costs one arena record plus two
//     index entries, not two records.
//
// Pointer-stability contract (see ribstore.go): Get materializes a
// *Route on first access and memoizes it per slot, so callers observe
// a stable pointer for an unchanged slot until the next epoch clear.
// Bulk loads that never Get stay fully packed, and so do a snapshot and
// a restore, which cost what their bytes cost:
//
//   - A snapshot numbers a store's records by position and reads their
//     fields from the arena (appendSorted). Its one sort per store is
//     of integer keys, a prefix's rank in the network's prefix index
//     above a chain head, a slot or a neighbor (sorted); the snapshot
//     ranks the index once and keeps the ranks no longer than itself.
//   - A restore decodes the route table straight to records and loads
//     each store in one pass (load): records come from the free list
//     in the order an Install per entry would take them, so slots and
//     RIBStats come out the same, but no path is hashed twice, no route
//     boxed, and no chain searched.
//
// The memo is bounded: once a store holds matCacheCap boxed routes the
// next insert drops the whole epoch (see Get), so a full WalkSorted
// over a large table does not box the entire store permanently.
// Dropping the memo only costs a re-boxing — never wrong results,
// because every comparison on routes is semantic and nothing holds a
// box across two walks.
type ribBackend struct {
	paths    *pathtab.Table
	prefixes *prefixIndex
	jr       *journal // the network's open undo journal, nil when none
}

func newRIBBackend() *ribBackend {
	return &ribBackend{paths: pathtab.New(), prefixes: newPrefixIndex()}
}

// prefixIndex assigns dense 32-bit indices to prefixes, first-seen
// order, shared by every speaker in a network.
type prefixIndex struct {
	idx  map[netutil.Prefix]uint32
	list []netutil.Prefix
}

func newPrefixIndex() *prefixIndex {
	return &prefixIndex{idx: make(map[netutil.Prefix]uint32)}
}

// Add returns p's dense index, assigning the next one on first sight.
func (pi *prefixIndex) Add(p netutil.Prefix) uint32 {
	if i, ok := pi.idx[p]; ok {
		return i
	}
	i := uint32(len(pi.list))
	pi.idx[p] = i
	pi.list = append(pi.list, p)
	return i
}

// At returns the prefix for a dense index.
func (pi *prefixIndex) At(i uint32) netutil.Prefix { return pi.list[i] }

// packedRoute is the 40-byte arena record for one route. The prefix
// lives in the store key, the AS path in the shared path table, and
// communities (rare) in a side map, so the record holds only the
// fixed-width attributes the decision process reads.
type packedRoute struct {
	learnedAt int64
	pathID    pathtab.ID
	med       uint32
	localPref uint32
	igpCost   uint32
	from      uint32
	fromAS    uint32
	// next links an adj-RIB-in record to the next one under its
	// prefix, as that record's slot + 1 (0 ends the chain); see
	// arenaStore. Records of the other stores leave it unread.
	next   uint32
	origin uint8
	class  uint8
	flags  uint8
	// ref counts the stores holding the record: at most 2, an
	// adj-RIB-in entry and the loc-RIB entry that shares it.
	ref uint8
}

const (
	prFlagEBGP     = 1 << 0
	prFlagHasComms = 1 << 1
)

// sameRecord reports whether two records describe the same route,
// ignoring the reference count and the chain link. Used for loc-RIB
// record sharing.
func sameRecord(a, b packedRoute) bool {
	a.ref, b.ref = 0, 0
	a.next, b.next = 0, 0
	return a == b
}

// speakerArena holds one speaker's route records. adj-RIB-in,
// loc-RIB, and adj-RIB-out stores of a speaker share one arena so the
// loc-RIB can refcount adj-RIB-in records.
type speakerArena struct {
	be    *ribBackend
	recs  []packedRoute
	free  []uint32
	comms map[uint32]CommunitySet // slot -> communities, when flagged
}

func newSpeakerArena(be *ribBackend) *speakerArena {
	return &speakerArena{be: be}
}

// alloc stores rec (with ref 1, on no chain) and returns its slot.
func (a *speakerArena) alloc(rec packedRoute, comms CommunitySet) uint32 {
	rec.ref, rec.next = 1, 0
	var slot uint32
	if n := len(a.free); n > 0 {
		slot = a.free[n-1]
		a.free = a.free[:n-1]
		a.recs[slot] = rec
	} else {
		slot = uint32(len(a.recs))
		a.recs = append(a.recs, rec)
	}
	if rec.flags&prFlagHasComms != 0 {
		if a.comms == nil {
			a.comms = make(map[uint32]CommunitySet)
		}
		a.comms[slot] = comms
	}
	return slot
}

// release drops one reference; the slot is recycled at zero.
func (a *speakerArena) release(slot uint32) {
	a.recs[slot].ref--
	if a.recs[slot].ref == 0 {
		if a.recs[slot].flags&prFlagHasComms != 0 {
			delete(a.comms, slot)
		}
		a.free = append(a.free, slot)
	}
}

// pack converts a route into its arena record, interning the path.
func (a *speakerArena) pack(r *Route) (packedRoute, CommunitySet) {
	return packRoute(r, a.be.paths.Intern(r.Path)), r.Communities
}

// packRoute is r's record, its path numbered pathID.
func packRoute(r *Route, pathID pathtab.ID) packedRoute {
	rec := packedRoute{
		learnedAt: int64(r.LearnedAt),
		pathID:    pathID,
		med:       r.MED,
		localPref: r.LocalPref,
		igpCost:   r.IGPCost,
		from:      uint32(r.From),
		fromAS:    uint32(r.FromAS),
		origin:    uint8(r.Origin),
		class:     uint8(r.Class),
	}
	if r.EBGP {
		rec.flags |= prFlagEBGP
	}
	if r.Communities.Len() > 0 {
		rec.flags |= prFlagHasComms
	}
	return rec
}

// materialize boxes the route for a record under prefix p.
func (a *speakerArena) materialize(p netutil.Prefix, slot uint32) *Route {
	r := new(Route)
	a.unpack(r, p, slot)
	return r
}

// unpack rebuilds into r the route for a record under prefix p.
func (a *speakerArena) unpack(r *Route, p netutil.Prefix, slot uint32) {
	rec := &a.recs[slot]
	var comms CommunitySet
	if rec.flags&prFlagHasComms != 0 {
		comms = a.comms[slot]
	}
	rec.unpack(r, p, a.be.paths.Resolve(rec.pathID), comms)
}

// unpack writes into r the record's route under prefix p, with path and
// comms as its AS path and communities: packRoute's inverse.
func (rec *packedRoute) unpack(r *Route, p netutil.Prefix, path asn.Path, comms CommunitySet) {
	*r = Route{
		Prefix:      p,
		Path:        path,
		Origin:      Origin(rec.origin),
		MED:         rec.med,
		LocalPref:   rec.localPref,
		Class:       RouteClass(rec.class),
		From:        RouterID(rec.from),
		FromAS:      asn.AS(rec.fromAS),
		EBGP:        rec.flags&prFlagEBGP != 0,
		IGPCost:     rec.igpCost,
		LearnedAt:   Time(rec.learnedAt),
		Communities: comms,
	}
}

// arenaStore is the compact ribStore: an index from packed
// (prefixIdx, neighbor) keys to arena slots, plus the per-slot
// materialization cache that provides the pointer-stability contract.
//
// The adj-RIB-in indexes its entries by prefix. heads maps a prefix
// index to the slot + 1 of the prefix's first record, and each record
// links the next through packedRoute.next, in ascending neighbor
// order. A record's neighbor is its from, which on an adj-RIB-in is
// always the key's neighbor: applyImport installs what it learns over
// a session under that session's key, and the decoder refuses any
// other entry. A point lookup walks one chain, about 1.1 records long
// at internet ÷ 40, and the decision's candidate walk (appendRoutes)
// reads the prefix index once and then only the candidates, not one
// key per session. The loc-RIB and adj-RIB-out map keys to slots.
type arenaStore struct {
	ar *speakerArena
	// sibling, set only on the loc-RIB store, points at the speaker's
	// adj-RIB-in store: Install tries to share (refcount) the sibling's
	// record for the same (prefix, From) slot instead of allocating.
	sibling *arenaStore
	heads   map[uint32]uint32 // adj-RIB-in: prefixIdx → first slot + 1
	n       int               // adj-RIB-in entries
	slots   map[uint64]uint32 // loc-RIB and adj-RIB-out: key → slot
	mat     map[uint64]*Route
}

// newArenaStore returns a loc-RIB or adj-RIB-out store, keyed by map.
func newArenaStore(ar *speakerArena) *arenaStore {
	return &arenaStore{ar: ar, slots: make(map[uint64]uint32)}
}

// newAdjInStore returns an adj-RIB-in store, chained by prefix.
func newAdjInStore(ar *speakerArena) *arenaStore {
	return &arenaStore{ar: ar, heads: make(map[uint32]uint32)}
}

// storeKey packs a ribKey into (prefixIdx << 32) | neighbor, interning
// the prefix on first use.
func (st *arenaStore) storeKey(k ribKey) uint64 {
	return uint64(st.ar.be.prefixes.Add(k.prefix))<<32 | uint64(k.neighbor)
}

// find returns the slot under key. It is the one read of the index.
func (st *arenaStore) find(key uint64) (uint32, bool) {
	if st.heads == nil {
		slot, ok := st.slots[key]
		return slot, ok
	}
	_, at := st.seek(key)
	if at == 0 || st.ar.recs[at-1].from != uint32(key) {
		return 0, false
	}
	return at - 1, true
}

// seek finds key's place on its prefix's chain: at is the first record
// whose neighbor is not below key's, prev the one before it, each as
// slot + 1 (0: none).
func (st *arenaStore) seek(key uint64) (prev, at uint32) {
	for at = st.heads[uint32(key>>32)]; at != 0; prev, at = at, st.ar.recs[at-1].next {
		if st.ar.recs[at-1].from >= uint32(key) {
			break
		}
	}
	return prev, at
}

// relink points the link after prev, or key's chain head when prev is
// 0, at to (0: the chain ends there).
func (st *arenaStore) relink(key uint64, prev, to uint32) {
	switch {
	case prev != 0:
		st.ar.recs[prev-1].next = to
	case to != 0:
		st.heads[uint32(key>>32)] = to
	default:
		delete(st.heads, uint32(key>>32))
	}
}

// index puts slot under key, which holds nothing.
func (st *arenaStore) index(key uint64, slot uint32) {
	if st.heads == nil {
		st.slots[key] = slot
		return
	}
	if st.ar.recs[slot].from != uint32(key) {
		panic(fmt.Sprintf("bgp: adj-RIB-in route from %d under neighbor %d", st.ar.recs[slot].from, uint32(key)))
	}
	prev, at := st.seek(key)
	st.ar.recs[slot].next = at
	st.relink(key, prev, slot+1)
	st.n++
}

// unindex removes key, which holds an entry.
func (st *arenaStore) unindex(key uint64) {
	if st.heads == nil {
		delete(st.slots, key)
		return
	}
	prev, at := st.seek(key)
	st.relink(key, prev, st.ar.recs[at-1].next)
	st.n--
}

// each calls fn with every entry's key and slot, in no order. fn may
// release the slot, but must not allocate.
func (st *arenaStore) each(fn func(key uint64, slot uint32)) {
	if st.heads == nil {
		for key, slot := range st.slots {
			fn(key, slot)
		}
		return
	}
	for pi, at := range st.heads {
		for at != 0 {
			slot := at - 1
			at = st.ar.recs[slot].next
			fn(uint64(pi)<<32|uint64(st.ar.recs[slot].from), slot)
		}
	}
}

// matCacheCap bounds the boxed *Route memo per store. The cap trades
// re-boxing for memory: under it, repeated Gets of hot entries return
// the memoized box; past it, the next insert clears the
// epoch, so a full walk of an internet-scale store retains at most cap
// boxes instead of boxing the whole table (the former leak).
const matCacheCap = 4096

func (st *arenaStore) Get(k ribKey) *Route {
	key := st.storeKey(k)
	slot, ok := st.find(key)
	if !ok {
		return nil
	}
	return st.box(key, k.prefix, slot)
}

// box returns the route of the entry under key, prefix p, at slot:
// the memoized box, or a new one it memoizes.
func (st *arenaStore) box(key uint64, p netutil.Prefix, slot uint32) *Route {
	if r, ok := st.mat[key]; ok {
		return r
	}
	r := st.ar.materialize(p, slot)
	if st.mat == nil {
		st.mat = make(map[uint64]*Route)
	} else if len(st.mat) >= matCacheCap {
		// Epoch clear: deterministic (depends only on access history),
		// and safe — no reader compares boxes from two epochs by
		// pointer. clear keeps the buckets for the next epoch.
		clear(st.mat)
	}
	st.mat[key] = r
	return r
}

// appendRoutes appends the adj-RIB-in routes for p in neighbor order:
// one lookup of the prefix index, then the chain.
func (st *arenaStore) appendRoutes(p netutil.Prefix, dst []*Route) []*Route {
	if st.heads == nil {
		panic("bgp: appendRoutes on an arena store not chained by prefix")
	}
	pi, ok := st.ar.be.prefixes.idx[p]
	if !ok {
		return dst
	}
	for at := st.heads[pi]; at != 0; at = st.ar.recs[at-1].next {
		slot := at - 1
		dst = append(dst, st.box(uint64(pi)<<32|uint64(st.ar.recs[slot].from), p, slot))
	}
	return dst
}

func (st *arenaStore) Install(k ribKey, r *Route) {
	if r == nil {
		panic("bgp: Install(nil route); use Withdraw")
	}
	key := st.storeKey(k)
	if st.ar.be.jr != nil {
		st.save(key)
	}
	rec, comms := st.ar.pack(r)
	st.put(key, rec, comms)
}

// put stores rec under key, replacing any previous entry.
func (st *arenaStore) put(key uint64, rec packedRoute, comms CommunitySet) {
	st.drop(key)
	st.index(key, st.place(key, rec, comms))
}

// place returns the slot rec takes under key, which holds nothing. The
// loc-RIB delta-encodes: it shares (refcounts) the adj-RIB-in record
// for the same (prefix, From) when it matches — it always does when
// the decision process installs the candidate it just scanned. Any
// other record is allocated.
func (st *arenaStore) place(key uint64, rec packedRoute, comms CommunitySet) uint32 {
	if st.sibling != nil && rec.from != 0 {
		if sibSlot, ok := st.sibling.find(key>>32<<32 | uint64(rec.from)); ok &&
			sameRecord(st.ar.recs[sibSlot], rec) &&
			communitiesEqual(st.ar.comms[sibSlot], comms) {
			st.ar.recs[sibSlot].ref++
			return sibSlot
		}
	}
	return st.ar.alloc(rec, comms)
}

func (st *arenaStore) stored(k ribKey, _ *Route) *Route { return st.Get(k) }

func (st *arenaStore) Withdraw(k ribKey) {
	key := st.storeKey(k)
	if st.ar.be.jr != nil {
		st.save(key)
	}
	st.drop(key)
}

// drop removes the entry under key, if any.
func (st *arenaStore) drop(key uint64) {
	slot, ok := st.find(key)
	if !ok {
		return
	}
	st.unindex(key)
	st.ar.release(slot)
	delete(st.mat, key)
}

func (st *arenaStore) Len() int {
	if st.heads == nil {
		return len(st.slots)
	}
	return st.n
}

// appendPrefixes appends each entry's prefix.
func (st *arenaStore) appendPrefixes(dst []netutil.Prefix) []netutil.Prefix {
	st.each(func(key uint64, _ uint32) {
		dst = append(dst, st.ar.be.prefixes.At(uint32(key>>32)))
	})
	return dst
}

// setJournal sets the whole network's journal: arena stores share it
// through their backend.
func (st *arenaStore) setJournal(j *journal) { st.ar.be.jr = j }

func (st *arenaStore) Reset() {
	st.release()
	if st.heads == nil {
		st.slots = make(map[uint64]uint32)
	} else {
		st.heads, st.n = make(map[uint32]uint32), 0
	}
}

// release drops every entry's reference to its record, in the index's
// own (map) order, and the memo; the index itself is the caller's to
// replace.
func (st *arenaStore) release() {
	st.each(func(_ uint64, slot uint32) { st.ar.release(slot) })
	st.mat = nil
}

// load is a restore's bulk load (see ribStore): the store's records are
// released as Reset releases them and its index made anew, presized,
// and then each entry, in file order, takes the slot that Installing it
// would take — from the free list, or shared with the adj-RIB-in
// exactly as put shares — so slots, the free list and RIBStats come out
// as an Install per entry leaves them. The prefix index is probed once
// per run of equal prefixes, and an adj-RIB-in record joins its chain
// at the tail: file order is (prefix, neighbor), the chain's order.
func (st *arenaStore) load(refs []ribRef, rt *snapRoutes) {
	st.release()
	be := st.ar.be
	if st.heads == nil {
		st.slots = make(map[uint64]uint32, len(refs))
	} else {
		runs := 0
		for j := range refs {
			if j == 0 || refs[j].k.prefix != refs[j-1].k.prefix {
				runs++
			}
		}
		st.heads, st.n = make(map[uint32]uint32, runs), len(refs)
	}
	var pi, tail uint32
	for j, ref := range refs {
		if j == 0 || ref.k.prefix != refs[j-1].k.prefix {
			pi, tail = be.prefixes.Add(ref.k.prefix), 0
		}
		key := uint64(pi)<<32 | uint64(ref.k.neighbor)
		rec, comms := rt.packed(ref.idx, be.paths)
		slot := st.place(key, rec, comms)
		switch {
		case st.heads == nil:
			st.slots[key] = slot
		case tail == 0:
			st.heads[pi] = slot + 1
		default:
			st.ar.recs[tail-1].next = slot + 1
		}
		tail = slot + 1
	}
}

// WalkSorted ranks the store's own prefixes, so a walk costs what the
// store holds, not what the network's prefix index does.
func (st *arenaStore) WalkSorted(fn func(k ribKey, r *Route) bool) {
	for _, ref := range st.sorted(nil, st.ownRanks()) {
		if !fn(ref.k, st.box(st.storeKey(ref.k), ref.k.prefix, ref.slot)) {
			return
		}
	}
}

// appendSorted numbers the store's records by position: a snapshot
// reads each one's fields from the arena and boxes none. The first
// arena store a snapshot walks ranks the network's whole prefix index,
// and every later one sorts on those ranks.
func (st *arenaStore) appendSorted(refs []ribRef, ri *routeIndex) []ribRef {
	if ri.ranks.rank == nil {
		ri.ranks.rankAll(st.ar.be.prefixes.list)
	}
	start := len(refs)
	refs = st.sorted(refs, &ri.ranks)
	ri.addRecords(st.ar, refs[start:])
	return refs
}

// sorted appends the store's entries, each with its arena slot, to refs
// in (prefix, neighbor) order. It makes one sort of integer keys, in
// rk's buffer, each a prefix's rank over 32 bits of something that
// orders the entries under it and finds their slots:
//
//   - adj-RIB-in: rank<<32 | the chain's head (slot + 1). Each chain
//     then expands in place, already in neighbor order.
//   - loc-RIB: rank<<32 | slot, since its neighbor is always 0.
//   - adj-RIB-out: rank<<32 | neighbor, and the slot is looked up.
func (st *arenaStore) sorted(refs []ribRef, rk *prefixRanks) []ribRef {
	keys := rk.keys[:0]
	loc := st.sibling != nil
	for pi, at := range st.heads {
		keys = append(keys, uint64(rk.of(pi))<<32|uint64(at))
	}
	for key, slot := range st.slots {
		low := key & 0xffffffff
		if loc {
			low = uint64(slot)
		}
		keys = append(keys, uint64(rk.of(uint32(key>>32)))<<32|low)
	}
	slices.Sort(keys)
	list := st.ar.be.prefixes.list
	for _, key := range keys {
		pi := rk.byRank[key>>32]
		p, low := list[pi], uint32(key)
		switch {
		case st.heads != nil:
			for at := low; at != 0; at = st.ar.recs[at-1].next {
				refs = append(refs, ribRef{k: ribKey{prefix: p, neighbor: RouterID(st.ar.recs[at-1].from)}, slot: at - 1})
			}
		case loc:
			refs = append(refs, ribRef{k: locKey(p), slot: low})
		default:
			refs = append(refs, ribRef{k: ribKey{prefix: p, neighbor: RouterID(low)}, slot: st.slots[uint64(pi)<<32|uint64(low)]})
		}
	}
	rk.keys = keys
	return refs
}

// ownRanks ranks the prefixes the store holds entries for.
func (st *arenaStore) ownRanks() *prefixRanks {
	rk := &prefixRanks{local: make(map[uint32]uint32)}
	st.each(func(key uint64, _ uint32) {
		pi := uint32(key >> 32)
		if _, ok := rk.local[pi]; !ok {
			rk.local[pi] = 0
			rk.byRank = append(rk.byRank, pi)
		}
	})
	rk.order(st.ar.be.prefixes.list)
	for r, pi := range rk.byRank {
		rk.local[pi] = uint32(r)
	}
	return rk
}

// prefixRanks numbers prefix indices in prefix order, so that a store's
// entries sort on integer keys (see sorted): byRank lists the indices in
// prefix order, and rank or local inverts it. A snapshot ranks its
// network's whole prefix index once, into rank (rankAll); WalkSorted
// ranks one store's own prefixes, into local (ownRanks).
type prefixRanks struct {
	rank   []uint32          // prefix index → rank, over the whole index
	local  map[uint32]uint32 // prefix index → rank, over one store's prefixes
	byRank []uint32
	keys   []uint64 // the sort buffer, reused store after store
}

// rankAll ranks every prefix of the index list.
func (rk *prefixRanks) rankAll(list []netutil.Prefix) {
	rk.byRank = make([]uint32, len(list))
	for i := range rk.byRank {
		rk.byRank[i] = uint32(i)
	}
	rk.order(list)
	rk.rank = make([]uint32, len(list))
	for r, pi := range rk.byRank {
		rk.rank[pi] = uint32(r)
	}
}

// of returns prefix index pi's rank.
func (rk *prefixRanks) of(pi uint32) uint32 {
	if rk.rank != nil {
		return rk.rank[pi]
	}
	return rk.local[pi]
}

// rankIndexBits is the width of a prefix index in an ordering key; the
// prefix's address and length take the other 38 bits.
const rankIndexBits = 26

// order sorts byRank, prefix indices into list, by their prefixes. Each
// becomes one integer key, the prefix (address, then length + 1, the
// order of netutil.ComparePrefixes) above the index, so the sort
// compares no prefix. The index must fit its 26 bits: the internet
// tier's prefix index holds about a million prefixes, 64 times fewer.
func (rk *prefixRanks) order(list []netutil.Prefix) {
	if len(list) > 1<<rankIndexBits {
		panic(fmt.Sprintf("bgp: %d prefixes to rank, more than 2^%d", len(list), rankIndexBits))
	}
	keys := rk.keys[:0]
	for _, pi := range rk.byRank {
		p := list[pi]
		keys = append(keys, (uint64(p.Addr())<<6|uint64(p.Bits()+1))<<rankIndexBits|uint64(pi))
	}
	slices.Sort(keys)
	for r, key := range keys {
		rk.byRank[r] = uint32(key & (1<<rankIndexBits - 1))
	}
	rk.keys = keys
}

// RIBStats describes the compact engine's memory model: entry counts
// and the modelled resident bytes of the arenas, indices, and path
// table. BytesPerRoute is the headline figure the benchmarks gate.
type RIBStats struct {
	Routes        int // total store entries across all speakers
	SharedLocRib  int // loc-RIB entries sharing an adj-RIB-in record
	Records       int // live arena records
	DistinctPaths int
	PathBytes     int // path table resident bytes
	ArenaBytes    int // packed records (including free slots)
	// IndexBytes models the key and prefix indices at 18 B per store
	// entry plus 30 B per interned prefix. The adj-RIB-in's index is
	// a chain head per prefix, not a key map, so for it the 18 B per
	// entry is an upper bound.
	IndexBytes int
}

// BytesPerRoute amortises the modelled resident bytes over the entry
// count.
func (rs RIBStats) BytesPerRoute() float64 {
	if rs.Routes == 0 {
		return 0
	}
	return float64(rs.PathBytes+rs.ArenaBytes+rs.IndexBytes) / float64(rs.Routes)
}

// CompactRIB reports whether the network uses the arena layout.
func (n *Network) CompactRIB() bool { return n.compact }

// SetCompactRIB selects the arena-backed RIB layout for all speakers.
// It must be called before any speaker is added: the two layouts do
// not mix within one network.
func (n *Network) SetCompactRIB(on bool) {
	if len(n.speakers) > 0 {
		panic("bgp: SetCompactRIB must be called before AddSpeaker")
	}
	n.compact = on
	if on && n.ribBE == nil {
		n.ribBE = newRIBBackend()
	}
}

// RIBStats reports the compact layout's memory model. On a row-table
// network only the entry counts are populated. Every figure is a sum,
// so the walk's order does not matter.
func (n *Network) RIBStats() RIBStats {
	var rs RIBStats
	seen := make(map[*speakerArena]bool)
	for _, id := range n.order {
		s := n.speakers[id]
		rs.Routes += s.adjIn.Len() + s.locRib.Len() + s.adjOut.Len()
		loc, okLoc := s.locRib.(*arenaStore)
		if !okLoc {
			continue
		}
		in := s.adjIn.(*arenaStore)
		loc.each(func(key uint64, slot uint32) {
			if sibSlot, ok := in.find(key>>32<<32 | uint64(loc.ar.recs[slot].from)); ok && sibSlot == slot {
				rs.SharedLocRib++
			}
		})
		ar := loc.ar
		if seen[ar] {
			continue
		}
		seen[ar] = true
		rs.Records += len(ar.recs) - len(ar.free)
		rs.ArenaBytes += 40 * len(ar.recs)
		// Each slot-map entry: 8-byte key + 4-byte value + amortised
		// bucket share (~50% on Go maps with small entries).
		for _, st := range []*arenaStore{in, loc, s.adjOut.(*arenaStore)} {
			rs.IndexBytes += st.Len() * 18
		}
	}
	if n.ribBE != nil {
		rs.DistinctPaths = n.ribBE.paths.Len()
		rs.PathBytes = n.ribBE.paths.Bytes()
		// The shared prefix index: prefix (8B) x2 (map key + list) plus
		// map value and bucket share.
		rs.IndexBytes += len(n.ribBE.prefixes.list) * 30
	}
	return rs
}

// MatCacheEntries reports the total boxed *Route entries held by the
// arena materialization caches across all speakers — the quantity the
// cache bound exists to limit (0 on row-table networks). Exposed for
// the leak-regression tests.
func (n *Network) MatCacheEntries() int {
	total := 0
	for _, s := range n.speakers {
		for _, store := range []ribStore{s.adjIn, s.locRib, s.adjOut} {
			if st, ok := store.(*arenaStore); ok {
				total += len(st.mat)
			}
		}
	}
	return total
}
