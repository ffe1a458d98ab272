package bgp

import (
	"fmt"
	"slices"

	"repro/internal/netutil"
)

// The RIB store abstraction. A speaker's three RIBs — adj-RIB-in,
// loc-RIB, adj-RIB-out — are values of one small interface, ribStore,
// with two layouts:
//
//   - ribRows (this file), the default: one table per speaker with one
//     row per prefix the speaker holds anything for. A row is the
//     loc-RIB route and, for every session at its position in the
//     speaker's session table (Speaker.sessions), the route learned
//     over it (adj-RIB-in) and the route announced over it
//     (adj-RIB-out). The three ribStore values are views onto the
//     table, and the table remembers the prefix it last wrote, so the
//     stretch of one delivery — applyImport, the decision, the export
//     fan-out, all on one (speaker, prefix) — hashes the prefix once
//     to read it and once to write it. Reads write nothing, so
//     concurrent readers of a quiescent network (parallel probing) are
//     as safe as they were on maps. Pointer-exact: Get returns the
//     *Route Install was given.
//   - arenaStore (arena.go): a memory-compact layout that packs each
//     route into a fixed 40-byte record in a per-speaker arena, interns
//     AS paths in a network-wide path table, chains each prefix's
//     adj-RIB-in records in neighbor order, and delta-encodes the
//     loc-RIB against adj-RIB-in by sharing records. Selected with
//     Network.SetCompactRIB(true).
//
// Both layouts walk a prefix's adj-RIB-in routes in one pass
// (appendRoutes): a row lookup and the row's in-cells, or a prefix
// index lookup and the chain. That walk is the decision's candidate
// scan, so the scan costs what the prefix's candidates cost, not one
// lookup per session.
//
// The historical layout, a map[ribKey]*Route per RIB, is kept in
// ribstore_reference_test.go as the oracle the row table is held to.
//
// The loc-RIB is keyed by prefix only; its store keys use neighbor 0
// (RouterID 0 is reserved — Route.From == 0 already means "locally
// originated" throughout the engine, so no session can use it).
//
// Interface contract, relied on by the engine and the snapshot layer:
//
//   - Install/Get round-trip semantic route values exactly, including
//     LearnedAt. The row table additionally round-trips pointer identity;
//     arenaStore returns materialized routes and keeps the returned
//     pointer stable for an unchanged slot until its next epoch clear
//     (arena.go), which is an optimization, not a guarantee: nothing
//     may key on a store's route pointer across two walks. A snapshot
//     walks each store once, through appendSorted, and keys on no
//     arena pointer at all.
//   - WalkSorted visits entries ordered by (prefix, neighbor) — prefix
//     order per netutil.ComparePrefixes — the canonical serialization
//     order of the snapshot format.
//   - Mutating the store during WalkSorted is not allowed; callers
//     collect keys first (see flushSession).
type ribStore interface {
	// Get returns the route stored under k, or nil.
	Get(k ribKey) *Route
	// Install stores r (non-nil) under k, replacing any previous entry.
	Install(k ribKey, r *Route)
	// Withdraw removes the entry under k (a no-op when absent).
	Withdraw(k ribKey)
	// stored returns what Get(k) returns right after Install(k, r):
	// r itself from the pointer-exact row table, with no lookup; the
	// arena's boxed copy, kept in its memo for the reads to come.
	stored(k ribKey, r *Route) *Route
	// WalkSorted visits every entry in (prefix, neighbor) order until
	// fn returns false.
	WalkSorted(fn func(k ribKey, r *Route) bool)
	// appendRoutes appends the routes stored for prefix p to dst in
	// neighbor order, reading p's place in the store once: the
	// decision's candidate walk over the adj-RIB-in. The arena offers
	// it on the adj-RIB-in alone, the one store it chains by prefix.
	appendRoutes(p netutil.Prefix, dst []*Route) []*Route
	// Len returns the number of entries.
	Len() int
	// appendPrefixes appends the prefix of the store's entries to dst,
	// unsorted, and at most once per entry, so Len more slots always
	// hold them: a row-table view lists each row with an entry on its
	// side once, an arena store each key's prefix.
	appendPrefixes(dst []netutil.Prefix) []netutil.Prefix
	// Reset empties the store.
	Reset()
	// setJournal makes Install and Withdraw record what they overwrite
	// into j (nil: stop recording); see journal.go.
	setJournal(j *journal)
	// appendSorted appends the store's entries to refs in (prefix,
	// neighbor) order, numbering their routes in ri: the one walk a
	// snapshot makes of a store (snapshot.go). A row table numbers
	// pointers; an arena store numbers records by position, sorted on
	// ri's prefix ranks.
	appendSorted(refs []ribRef, ri *routeIndex) []ribRef
	// load replaces the store's entries with refs, whose keys strictly
	// ascend and whose routes are rt's: a restore's one write to a
	// store, leaving it as a Reset and an Install per entry would.
	load(refs []ribRef, rt *snapRoutes)
}

// locKey is the loc-RIB store key for p (neighbor 0 by convention).
func locKey(p netutil.Prefix) ribKey { return ribKey{prefix: p} }

// rowSide names one of a row's three RIBs; the value is also the
// side's offset in a row (in and out add twice the slot index).
type rowSide uint8

const (
	sideLoc rowSide = iota // cell 0
	sideIn                 // cell 1 + 2·slot
	sideOut                // cell 2 + 2·slot
)

// compactMin is the fewest free rows worth compacting away: below it a
// table keeps its free rows for the next prefixes, so a speaker whose
// one prefix flaps does not reallocate on every flap.
const compactMin = 32

// ribRows is the default RIB layout (see the file comment): a
// speaker's adj-RIB-in, loc-RIB and adj-RIB-out as one table.
//
// Row r is cells[r·stride : (r+1)·stride]: the loc-RIB route, then for
// slot i — the session at position i of the owner's session table —
// the adj-RIB-in route and the adj-RIB-out route. A row lives while
// any of its cells is set: live counts them, and the row that empties
// leaves the index for the free list, which new prefixes reuse before
// the slab grows. Once more than half the rows are free (and at least
// compactMin), the live ones move into a slab of their own size, so a
// table that shrinks gives its memory back; never while a journal is
// open, whose rewind would only grow it again.
type ribRows struct {
	sp     *Speaker                 // the owner: slot i is sp.sessions[i]
	stride int                      // cells per row: 1 + 2·len(sp.sessions)
	index  map[netutil.Prefix]int32 // live prefix → row
	cells  []*Route                 // the slab
	prefix []netutil.Prefix         // row → prefix
	live   []int32                  // row → cells set; 0: free
	free   []int32
	lens   [3]int // entries per side

	// The prefix the last write touched and its row (-1: absent since),
	// and the slot it wrote: a fan-out writes the slots in order, so the
	// next lookup is usually that slot or the next. Only writes set
	// them; reads write nothing.
	memo    netutil.Prefix
	memoRow int32
	memoOK  bool
	slot    int

	jr    *journal
	views [3]rowView
}

func newRibRows(sp *Speaker) *ribRows {
	t := &ribRows{sp: sp, stride: 1, index: make(map[netutil.Prefix]int32)}
	for i := range t.views {
		t.views[i] = rowView{t, rowSide(i)}
	}
	return t
}

// view returns the ribStore over one side of the table.
func (t *ribRows) view(side rowSide) ribStore { return &t.views[side] }

// addSlot gives every row a slot for the session the owner just
// inserted at position i of its table.
func (t *ribRows) addSlot(i int) {
	old := t.stride
	t.stride = 1 + 2*len(t.sp.sessions)
	if len(t.prefix) == 0 {
		return
	}
	at := 1 + 2*i
	cells := make([]*Route, len(t.prefix)*t.stride)
	for r := range t.prefix {
		src, dst := t.cells[r*old:(r+1)*old], cells[r*t.stride:(r+1)*t.stride]
		copy(dst, src[:at])
		copy(dst[at+2:], src[at:])
	}
	t.cells = cells
}

// slotOf returns neighbor nb's slot on side (0 on the loc-RIB's); ok
// is false when nb is not a session of the speaker.
func (t *ribRows) slotOf(side rowSide, nb RouterID) (int, bool) {
	if side == sideLoc {
		return 0, true
	}
	ss := t.sp.sessions
	for i := t.slot; i < t.slot+2 && i < len(ss); i++ {
		if ss[i].nbID == nb {
			return i, true
		}
	}
	return t.sp.slot(nb)
}

// offset returns the cell of side for the slot within a row.
func offset(side rowSide, slot int) int {
	if side == sideLoc {
		return 0
	}
	return 2*slot + int(side)
}

// row returns p's row, or -1 when the table holds nothing for p.
func (t *ribRows) row(p netutil.Prefix) int32 {
	if t.memoOK && t.memo == p {
		return t.memoRow
	}
	if r, ok := t.index[p]; ok {
		return r
	}
	return -1
}

func (t *ribRows) get(side rowSide, k ribKey) *Route {
	slot, ok := t.slotOf(side, k.neighbor)
	if !ok {
		return nil
	}
	r := t.row(k.prefix)
	if r < 0 {
		return nil
	}
	return t.cells[int(r)*t.stride+offset(side, slot)]
}

// set stores rt (nil: removes the entry) under k on side, first
// recording what it overwrites when record is set and a journal is
// open.
func (t *ribRows) set(side rowSide, k ribKey, rt *Route, record bool) {
	slot, ok := t.slotOf(side, k.neighbor)
	if !ok {
		if rt == nil {
			return
		}
		panic(fmt.Sprintf("bgp: RIB entry for neighbor %d, which is not a session", k.neighbor))
	}
	r := t.row(k.prefix)
	if r < 0 {
		if rt == nil {
			return
		}
		r = t.take(k.prefix)
	}
	t.memo, t.memoRow, t.memoOK, t.slot = k.prefix, r, true, slot
	c := &t.cells[int(r)*t.stride+offset(side, slot)]
	prev := *c
	if prev == rt {
		return
	}
	if record && t.jr != nil {
		t.jr.rows = append(t.jr.rows, rowUndo{&t.views[side], k, prev})
	}
	*c = rt
	switch {
	case prev == nil:
		t.live[r]++
		t.lens[side]++
	case rt == nil:
		t.lens[side]--
		if t.live[r]--; t.live[r] == 0 {
			t.release(r)
			if t.jr == nil && len(t.free) >= compactMin && 2*len(t.free) > len(t.prefix) {
				t.compact()
			}
		}
	}
}

// take makes a row for p, a free one if there is one.
func (t *ribRows) take(p netutil.Prefix) int32 {
	var r int32
	if n := len(t.free); n > 0 {
		r = t.free[n-1]
		t.free = t.free[:n-1]
		t.prefix[r] = p
	} else {
		r = int32(len(t.prefix))
		t.prefix = append(t.prefix, p)
		t.live = append(t.live, 0)
		t.cells = append(t.cells, make([]*Route, t.stride)...)
	}
	t.index[p] = r
	return r
}

// release frees the emptied row r.
func (t *ribRows) release(r int32) {
	p := t.prefix[r]
	delete(t.index, p)
	if t.memoOK && t.memo == p {
		t.memoRow = -1
	}
	t.free = append(t.free, r)
}

// compact moves the live rows into a slab, index and row arrays sized
// for them and lets the old ones go.
func (t *ribRows) compact() {
	n := len(t.prefix) - len(t.free)
	cells := make([]*Route, 0, n*t.stride)
	prefix := make([]netutil.Prefix, 0, n)
	live := make([]int32, 0, n)
	index := make(map[netutil.Prefix]int32, n)
	for r, c := range t.live {
		if c == 0 {
			continue
		}
		index[t.prefix[r]] = int32(len(prefix))
		prefix = append(prefix, t.prefix[r])
		live = append(live, c)
		cells = append(cells, t.cells[r*t.stride:(r+1)*t.stride]...)
	}
	t.cells, t.prefix, t.live, t.index = cells, prefix, live, index
	t.free = nil
	t.memoOK = false
}

// reset empties one side, freeing the rows that empty with it. A table
// left with no rows keeps its slab and index for the refill a snapshot
// restore brings.
func (t *ribRows) reset(side rowSide) {
	if t.lens[side] == 0 {
		return
	}
	for r, c := range t.live {
		if c == 0 {
			continue
		}
		row := t.cells[r*t.stride : (r+1)*t.stride]
		step := 2
		if side == sideLoc {
			step = len(row)
		}
		for i := int(side); i < len(row); i += step {
			if row[i] != nil {
				row[i] = nil
				c--
			}
		}
		if t.live[r] = c; c == 0 {
			t.release(int32(r))
		}
	}
	t.lens[side] = 0
	if len(t.free) == len(t.prefix) {
		t.cells, t.prefix, t.live, t.free = t.cells[:0], t.prefix[:0], t.live[:0], t.free[:0]
	}
}

// appendRoutes appends side's routes for p in slot (neighbor) order:
// one row lookup, then the row's cells on that side.
func (t *ribRows) appendRoutes(side rowSide, p netutil.Prefix, dst []*Route) []*Route {
	r := t.row(p)
	if r < 0 {
		return dst
	}
	row := t.cells[int(r)*t.stride : (int(r)+1)*t.stride]
	step := 2
	if side == sideLoc {
		step = len(row)
	}
	for i := int(side); i < len(row); i += step {
		if row[i] != nil {
			dst = append(dst, row[i])
		}
	}
	return dst
}

// sortedRows returns the live rows in prefix order, in a slice of its
// own: concurrent walks share nothing.
func (t *ribRows) sortedRows() []int32 {
	rows := make([]int32, 0, len(t.index))
	for r, c := range t.live {
		if c != 0 {
			rows = append(rows, int32(r))
		}
	}
	slices.SortFunc(rows, func(a, b int32) int { return netutil.ComparePrefixes(t.prefix[a], t.prefix[b]) })
	return rows
}

// walk visits side's entries in (prefix, neighbor) order: rows in
// prefix order, slots in neighbor order.
func (t *ribRows) walk(side rowSide, fn func(k ribKey, r *Route) bool) {
	if t.lens[side] == 0 {
		return
	}
	for _, r := range t.sortedRows() {
		row := t.cells[int(r)*t.stride : (int(r)+1)*t.stride]
		p := t.prefix[r]
		if side == sideLoc {
			if rt := row[0]; rt != nil && !fn(locKey(p), rt) {
				return
			}
			continue
		}
		for i := range t.sp.sessions {
			if rt := row[2*i+int(side)]; rt != nil && !fn(ribKey{prefix: p, neighbor: t.sp.sessions[i].nbID}, rt) {
				return
			}
		}
	}
}

// appendPrefixes appends the prefix of every live row holding an entry
// on side: the loc cell, or any of the side's session cells.
func (t *ribRows) appendPrefixes(side rowSide, dst []netutil.Prefix) []netutil.Prefix {
	if t.lens[side] == 0 {
		return dst
	}
	for r, c := range t.live {
		if c == 0 {
			continue
		}
		row := t.cells[r*t.stride : (r+1)*t.stride]
		if side == sideLoc {
			if row[0] != nil {
				dst = append(dst, t.prefix[r])
			}
			continue
		}
		for i := int(side); i < len(row); i += 2 {
			if row[i] != nil {
				dst = append(dst, t.prefix[r])
				break
			}
		}
	}
	return dst
}

// rowView is one side of a ribRows table as a ribStore.
type rowView struct {
	t    *ribRows
	side rowSide
}

func (v *rowView) Get(k ribKey) *Route { return v.t.get(v.side, k) }

func (v *rowView) Install(k ribKey, r *Route) {
	if r == nil {
		panic("bgp: Install(nil route); use Withdraw")
	}
	v.t.set(v.side, k, r, true)
}

func (v *rowView) Withdraw(k ribKey) { v.t.set(v.side, k, nil, true) }

func (v *rowView) stored(_ ribKey, r *Route) *Route { return r }

func (v *rowView) setJournal(j *journal) { v.t.jr = j }

func (v *rowView) appendRoutes(p netutil.Prefix, dst []*Route) []*Route {
	return v.t.appendRoutes(v.side, p, dst)
}

func (v *rowView) Len() int { return v.t.lens[v.side] }

func (v *rowView) Reset() { v.t.reset(v.side) }

func (v *rowView) appendPrefixes(dst []netutil.Prefix) []netutil.Prefix {
	return v.t.appendPrefixes(v.side, dst)
}

func (v *rowView) WalkSorted(fn func(k ribKey, r *Route) bool) { v.t.walk(v.side, fn) }

// load resets the side and sets each entry's route.
func (v *rowView) load(refs []ribRef, rt *snapRoutes) {
	v.t.reset(v.side)
	for _, ref := range refs {
		v.t.set(v.side, ref.k, rt.route(ref.idx), true)
	}
}

// appendSorted numbers every route through ri's pointer map, which
// keeps the sharing between stores and queued events.
func (v *rowView) appendSorted(refs []ribRef, ri *routeIndex) []ribRef {
	v.t.walk(v.side, func(k ribKey, r *Route) bool {
		refs = append(refs, ribRef{k: k, idx: ri.add(r)})
		return true
	})
	return refs
}
