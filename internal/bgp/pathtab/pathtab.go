// Package pathtab interns BGP AS paths into a canonical table so that
// identical paths — overwhelmingly common once prepend cycling and
// re-export multiply the same few announcements across thousands of
// adj-RIB-ins — are stored once and referenced by a dense 32-bit ID.
//
// IDs are assigned in first-intern order starting at 1; ID 0 is
// reserved for the empty path, so a zero-valued reference always means
// "no AS path" (the path carried on a locally originated route).
// Interning the empty path therefore returns 0 without touching the
// table. IDs are stable for the lifetime of the table: once a path has
// an ID, every later Intern of an equal path returns the same ID, and
// Resolve returns the same canonical slice.
//
// Resolve hands out the table's canonical slice without copying.
// Callers must treat it as immutable, the same contract asn.Path
// already documents; mutating operations on asn.Path return fresh
// slices, so sharing is safe throughout the engine.
package pathtab

import (
	"encoding/binary"

	"repro/internal/asn"
)

// ID is a dense reference to an interned path. The zero ID is the
// empty path.
type ID uint32

// Empty is the reserved ID of the empty path.
const Empty ID = 0

// Table interns AS paths. The zero value is not usable; call New.
// Table is not safe for concurrent use; the engine drives it from the
// single-threaded event loop, matching every other engine structure.
type Table struct {
	// byKey maps the packed string form of a path to its ID. A lookup
	// indexes it with string(buf), which the compiler does without
	// copying, so only an insert allocates a key string.
	byKey map[string]ID
	// buf is the scratch buffer every key is built in: one per table,
	// which is why even Lookup is not safe for concurrent use.
	buf []byte
	// paths[i] is the canonical slice for ID i+1.
	paths []asn.Path
	// words counts the total AS elements stored, for memory accounting.
	words int
}

// New returns an empty table.
func New() *Table {
	return &Table{byKey: make(map[string]ID)}
}

// key packs p into the scratch buffer as little-endian 4-byte AS words
// and returns the buffer, valid until the next key.
func (t *Table) key(p asn.Path) []byte {
	b := t.buf[:0]
	for _, a := range p {
		b = binary.LittleEndian.AppendUint32(b, uint32(a))
	}
	t.buf = b
	return b
}

// Intern returns the ID for p, assigning the next free ID on first
// sight. The empty (or nil) path is always Empty. The table keeps its
// own copy of p, so the caller's slice is never retained.
func (t *Table) Intern(p asn.Path) ID {
	if len(p) == 0 {
		return Empty
	}
	k := t.key(p)
	if id, ok := t.byKey[string(k)]; ok {
		return id
	}
	id := ID(len(t.paths) + 1)
	t.byKey[string(k)] = id
	t.paths = append(t.paths, p.Clone())
	t.words += len(p)
	return id
}

// Lookup returns the ID for p without interning, reporting whether it
// is already present. The empty path is always present as Empty.
func (t *Table) Lookup(p asn.Path) (ID, bool) {
	if len(p) == 0 {
		return Empty, true
	}
	id, ok := t.byKey[string(t.key(p))]
	return id, ok
}

// Resolve returns the canonical path for id. Resolve(Empty) is nil.
// The returned slice is shared; callers must not mutate it. Resolving
// an ID the table never issued panics: references only come from
// Intern, so an unknown ID is a corrupted store, not an input error.
func (t *Table) Resolve(id ID) asn.Path {
	if id == Empty {
		return nil
	}
	if int(id) > len(t.paths) {
		panic("pathtab: resolve of unissued path ID")
	}
	return t.paths[id-1]
}

// Len returns the number of distinct non-empty paths interned.
func (t *Table) Len() int { return len(t.paths) }

// Bytes estimates the table's resident size: the canonical slices plus
// the per-entry index overhead (string key bytes, map bucket share,
// slice header). It is the figure the memory benchmarks amortise over
// the route count.
func (t *Table) Bytes() int {
	const perEntry = 16 + // string header in the map key
		24 + // slice header in paths
		16 // amortised map bucket share
	return 8*t.words + len(t.paths)*perEntry
}
