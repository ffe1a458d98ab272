package bgp

import (
	"slices"

	"repro/internal/netutil"
)

// The RIB store abstraction. A speaker's three RIBs — adj-RIB-in,
// loc-RIB, adj-RIB-out — used to be three map fields with ad-hoc
// access patterns spread over the engine. They are now values of one
// small interface, ribStore, with two implementations:
//
//   - mapStore: the historical map[ribKey]*Route layout, pointer-exact
//     with the old fields. The default, and the reference semantics
//     the differential tests compare against.
//   - arenaStore (arena.go): a memory-compact layout that packs each
//     route into a fixed 40-byte record in a per-speaker arena, interns
//     AS paths in a network-wide path table, and delta-encodes the
//     loc-RIB against adj-RIB-in by sharing records. Selected with
//     Network.SetCompactRIB(true).
//
// The loc-RIB is keyed by prefix only; its store keys use neighbor 0
// (RouterID 0 is reserved — Route.From == 0 already means "locally
// originated" throughout the engine, so no session can use it).
//
// Interface contract, relied on by the engine and the snapshot layer:
//
//   - Install/Get round-trip semantic route values exactly, including
//     LearnedAt. mapStore additionally round-trips pointer identity;
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
	// r itself from the pointer-exact map store, with no lookup; the
	// arena's boxed copy, kept in its memo for the reads to come.
	stored(k ribKey, r *Route) *Route
	// WalkSorted visits every entry in (prefix, neighbor) order until
	// fn returns false.
	WalkSorted(fn func(k ribKey, r *Route) bool)
	// Len returns the number of entries.
	Len() int
	// Reset empties the store.
	Reset()
	// setJournal makes Install and Withdraw record what they overwrite
	// into j (nil: stop recording); see journal.go.
	setJournal(j *journal)
	// appendSorted appends the store's entries to refs in (prefix,
	// neighbor) order, numbering their routes in ri: the one walk a
	// snapshot makes of a store (snapshot.go).
	appendSorted(refs []ribRef, ri *routeIndex) []ribRef
}

// locKey is the loc-RIB store key for p (neighbor 0 by convention).
func locKey(p netutil.Prefix) ribKey { return ribKey{prefix: p} }

// ribEntry is one (key, route) pair of a store: what a sorted walk
// visits and what a snapshot's RIB tables decode into.
type ribEntry struct {
	k ribKey
	r *Route
}

// mapStore is the reference ribStore: a bare route map. Install and
// Get preserve pointer identity, which the rest of the engine's
// aliasing (queue events, adj-out entries) was originally built on.
type mapStore struct {
	m  map[ribKey]*Route
	jr *journal
}

func newMapStore() *mapStore { return &mapStore{m: make(map[ribKey]*Route)} }

func (st *mapStore) Get(k ribKey) *Route { return st.m[k] }

func (st *mapStore) Install(k ribKey, r *Route) {
	if r == nil {
		panic("bgp: Install(nil route); use Withdraw")
	}
	if st.jr != nil {
		st.jr.routes.save(st.m, k)
	}
	st.m[k] = r
}

func (st *mapStore) Withdraw(k ribKey) {
	if st.jr != nil {
		st.jr.routes.save(st.m, k)
	}
	delete(st.m, k)
}

func (st *mapStore) stored(_ ribKey, r *Route) *Route { return r }

func (st *mapStore) setJournal(j *journal) { st.jr = j }

func (st *mapStore) Len() int { return len(st.m) }

// Reset keeps the buckets: a restore refills the store to the size it
// had, so a rewind loop reuses them instead of regrowing from empty.
func (st *mapStore) Reset() { clear(st.m) }

// appendSorted numbers every route through ri's pointer map, which
// keeps the sharing between stores and queued events.
func (st *mapStore) appendSorted(refs []ribRef, ri *routeIndex) []ribRef {
	st.WalkSorted(func(k ribKey, r *Route) bool {
		refs = append(refs, ribRef{k: k, idx: ri.add(r)})
		return true
	})
	return refs
}

func (st *mapStore) WalkSorted(fn func(k ribKey, r *Route) bool) {
	entries := make([]ribEntry, 0, len(st.m))
	for k, r := range st.m {
		entries = append(entries, ribEntry{k, r})
	}
	slices.SortFunc(entries, func(a, b ribEntry) int { return a.k.compare(b.k) })
	for _, e := range entries {
		if !fn(e.k, e.r) {
			return
		}
	}
}
