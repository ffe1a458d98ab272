// Package rpki implements Route Origin Authorizations and RFC 6811
// route origin validation. The paper's measurement announcements were
// "covered by RPKI ROAs" (§3.3), and its passive-VP methodology
// descends from the data-plane ROV studies of §2.3; this substrate
// lets both be exercised in simulation: validate any (prefix, origin)
// pair, and attach drop-invalid enforcement to a speaker's import
// policy.
package rpki

import (
	"fmt"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/netutil"
)

// ROA authorizes an origin AS to announce a prefix up to MaxLength.
type ROA struct {
	Prefix    netutil.Prefix
	MaxLength int
	Origin    asn.AS
}

// String renders "prefix-maxlen => AS".
func (r ROA) String() string {
	return fmt.Sprintf("%s-%d => %s", r.Prefix, r.MaxLength, r.Origin)
}

// Validity is an RFC 6811 validation state.
type Validity uint8

// Validation states.
const (
	// NotFound: no ROA covers the prefix.
	NotFound Validity = iota
	// Valid: a covering ROA matches the origin and length.
	Valid
	// Invalid: covering ROAs exist but none matches.
	Invalid
)

func (v Validity) String() string {
	switch v {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	default:
		return "not-found"
	}
}

// Table is a validated ROA payload set (a VRP table).
type Table struct {
	trie netutil.Trie[[]ROA]
	n    int
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// effectiveMaxLength returns the max length a ROA actually authorizes:
// at least the ROA's own prefix length (a ROA always authorizes its
// exact prefix, RFC 6482 §3.2) and at most the address-family bound.
// Both Add and Validate use it, so tables built by bulk loaders (or
// fuzzers) that bypass Add's normalization still validate per spec —
// previously a stored MaxLength below the prefix length made the ROA's
// own prefix validate Invalid, an off-by-one visible exactly on /24
// ROAs entered with the common "maxlen 0" shorthand.
func effectiveMaxLength(r ROA) int {
	ml := r.MaxLength
	if ml < r.Prefix.Bits() {
		ml = r.Prefix.Bits()
	}
	if ml > 32 {
		ml = 32
	}
	return ml
}

// Add inserts a ROA. MaxLength shorter than the prefix length is
// normalized up to it (a ROA always authorizes at least its own
// length).
func (t *Table) Add(r ROA) {
	if !r.Prefix.IsValid() {
		return
	}
	r.MaxLength = effectiveMaxLength(r)
	existing, _ := t.trie.Get(r.Prefix)
	t.trie.Insert(r.Prefix, append(existing, r))
	t.n++
}

// Len returns the number of ROAs.
func (t *Table) Len() int { return t.n }

// Validate classifies an announcement of p by origin, per RFC 6811:
// Valid if any covering ROA matches origin and p is no longer than its
// MaxLength; Invalid if covering ROAs exist but none matches; NotFound
// otherwise.
func (t *Table) Validate(p netutil.Prefix, origin asn.AS) Validity {
	covered := false
	valid := false
	t.trie.Covering(p, func(_ netutil.Prefix, roas []ROA) bool {
		for _, r := range roas {
			covered = true
			if r.Origin == origin && p.Bits() <= effectiveMaxLength(r) {
				valid = true
				return false
			}
		}
		return true
	})
	switch {
	case valid:
		return Valid
	case covered:
		return Invalid
	default:
		return NotFound
	}
}

// ValidateRoute classifies a BGP route by its path origin.
func (t *Table) ValidateRoute(r *bgp.Route) Validity {
	return t.Validate(r.Prefix, r.Path.Origin())
}

// DropInvalid returns an import-policy predicate that rejects
// RPKI-invalid routes — the ROV enforcement an AS deploys. Compose it
// into bgp.PeerConfig.ImportDeny.
func (t *Table) DropInvalid() func(*bgp.Route) bool {
	return func(r *bgp.Route) bool {
		return t.ValidateRoute(r) == Invalid
	}
}
