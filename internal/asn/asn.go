// Package asn models autonomous system numbers and BGP AS paths.
//
// An AS path is the sequence of autonomous systems a route announcement
// has traversed, most recent first. The package supports the operations
// the reproduction needs: prepending (an AS inserting extra copies of
// its own number to lengthen the path), origin extraction, loop
// detection, and length comparison under the BGP decision process.
package asn

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// AS is an autonomous system number. Four-octet ASNs (RFC 6793) fit.
type AS uint32

// Reserved and documentation ASNs used as sentinels.
const (
	// None marks the absence of an AS (e.g. an empty path's origin).
	None AS = 0
)

// String returns the decimal representation, matching operator
// convention ("AS11537" is written by callers that want the prefix).
func (a AS) String() string { return strconv.FormatUint(uint64(a), 10) }

// Path is a BGP AS_SEQUENCE: index 0 is the most recently added
// (nearest) AS and the final element is the origin AS. The zero value
// is the empty path, as carried on a route a speaker originates.
//
// Path values are treated as immutable once built; mutating operations
// return fresh slices so routes can share storage safely.
type Path []AS

// ParsePath parses a space-separated AS path such as
// "174 3356 2152 7377". An empty string parses to the empty path.
func ParsePath(s string) (Path, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	fields := strings.Fields(s)
	p := make(Path, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("asn: bad AS %q in path %q: %w", f, s, err)
		}
		p = append(p, AS(v))
	}
	return p, nil
}

// MustParsePath is ParsePath but panics on error; for tests and tables.
func MustParsePath(s string) Path {
	p, err := ParsePath(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String formats the path the way looking glasses print it:
// space-separated, nearest AS first.
func (p Path) String() string {
	if len(p) == 0 {
		return ""
	}
	var b strings.Builder
	for i, a := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.String())
	}
	return b.String()
}

// Len returns the AS path length as used by the BGP decision process:
// the number of elements, counting prepended duplicates.
func (p Path) Len() int { return len(p) }

// Origin returns the AS that originated the route (the last element),
// or None for the empty path.
func (p Path) Origin() AS {
	if len(p) == 0 {
		return None
	}
	return p[len(p)-1]
}

// First returns the nearest AS (the neighbor the route was learned
// from, in a received path), or None for the empty path.
func (p Path) First() AS {
	if len(p) == 0 {
		return None
	}
	return p[0]
}

// Contains reports whether a appears anywhere in the path. BGP
// speakers use this for loop prevention: a route whose path contains
// the local AS must be discarded.
func (p Path) Contains(a AS) bool {
	for _, x := range p {
		if x == a {
			return true
		}
	}
	return false
}

// Prepend returns a new path with n copies of a inserted at the front.
// n <= 0 returns a copy of the receiver. This is both the normal
// "advertise to a neighbor" operation (n == 1) and operator prepending
// (n > 1).
func (p Path) Prepend(a AS, n int) Path {
	if n < 0 {
		n = 0
	}
	out := make(Path, n+len(p))
	for i := 0; i < n; i++ {
		out[i] = a
	}
	copy(out[n:], p)
	return out
}

// Clone returns an independent copy of the path.
func (p Path) Clone() Path {
	if p == nil {
		return nil
	}
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// Equal reports whether two paths are element-wise identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// AppendUnique appends to dst the distinct ASes of p in path order
// (first occurrence wins) and returns the extended slice: the AS-level
// hops the path represents, ignoring prepending. It scans what it has
// appended instead of building a set: AS paths are short, and most
// repeats are prepends.
func (p Path) AppendUnique(dst Path) Path {
	start := len(dst)
	for i, a := range p {
		// A prepended run repeats the AS just kept; only a poisoned
		// path repeats one further back.
		if (i == 0 || a != p[i-1]) && !slices.Contains(dst[start:], a) {
			dst = append(dst, a)
		}
	}
	return dst
}

// PrependCount returns how many times the origin AS appears at the
// tail of the path beyond its single required appearance. A path
// "7377 7377 7377" has PrependCount 2. The empty path has 0.
//
// This is the quantity Table 4 of the paper compares between R&E and
// commodity routes for the same origin.
func (p Path) PrependCount() int {
	if len(p) == 0 {
		return 0
	}
	origin := p[len(p)-1]
	n := 0
	for i := len(p) - 1; i >= 0 && p[i] == origin; i-- {
		n++
	}
	return n - 1
}

// NeighborOfOrigin returns the AS immediately upstream of the origin,
// skipping origin prepending, or None if the origin is the only AS.
// Table 4 uses this to decide whether a route entered the world via an
// R&E or a commodity neighbor.
func (p Path) NeighborOfOrigin() AS {
	if len(p) == 0 {
		return None
	}
	origin := p[len(p)-1]
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != origin {
			return p[i]
		}
	}
	return None
}
