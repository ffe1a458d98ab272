// Package optimize is the policy-optimization search harness: given a
// target catchment split or probe-observation distribution, it searches
// the per-AS traffic-engineering configuration space — export/prefix
// prepends, import localpref overrides, and action communities on the
// origination — for the configuration that best produces it. The
// package holds the pure search machinery (candidates, objectives,
// strategies, and the deterministic generation loop); evaluating a
// candidate against a live BGP world is injected as an Evaluator, which
// core implements by rewinding a converged pristine snapshot and
// applying the candidate's config delta through the engine.
//
// Everything here is deterministic by construction: proposals are drawn
// from parallel.Rand(seed, ordinal) streams keyed by the global
// candidate ordinal, evaluations fan out over the bounded worker pool
// with an ordered merge, and state folds back serially — so results are
// byte-identical at any worker width.
package optimize

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
)

// NGenes is the fixed candidate genome length.
const NGenes = 5

// Gene indices. Each gene is a small categorical value; Cardinalities
// bounds it.
const (
	// GeneREPrepend is the extra origin prepend on every R&E session
	// of the measurement announcement (0–4, the paper's schedule range).
	GeneREPrepend = iota
	// GeneCommodityPrepend is the commodity-side counterpart.
	GeneCommodityPrepend
	// GeneRELocalPref indexes LocalPrefChoices: an import-localpref
	// override applied at each R&E peer on its session from the origin
	// (0 keeps the peer's configured preference).
	GeneRELocalPref
	// GeneCommodityLocalPref is the commodity-side counterpart.
	GeneCommodityLocalPref
	// GeneREAction selects the action community attached to the R&E
	// origination: 0 none, 1 NO_EXPORT (scopes the R&E announcement to
	// direct peers — the bluntest community lever the engine honours).
	GeneREAction
)

// Cardinalities gives each gene's value count; gene g takes values in
// [0, Cardinalities[g]).
var Cardinalities = [NGenes]uint8{5, 5, 4, 4, 2}

// LocalPrefChoices are the import-localpref override values the
// localpref genes index. Index 0 keeps the session's configured tier
// preference; the rest bracket the relationship tiers (provider 100,
// peer 200, customer 300).
var LocalPrefChoices = [4]uint32{0, 100, 200, 500}

// Candidate is one point of the configuration space: a fixed vector of
// categorical genes. The zero value is NOT the baseline — see Baseline.
type Candidate struct {
	Genes [NGenes]uint8
}

// Baseline is the candidate that reproduces the converged pristine
// state exactly: the schedule's first prepend configuration (4-0), no
// localpref overrides, no action community. Evaluating it applies a
// no-op delta.
func Baseline() Candidate {
	var c Candidate
	c.Genes[GeneREPrepend] = 4
	return c
}

// Valid reports whether every gene is within its cardinality.
func (c Candidate) Valid() bool {
	for g, v := range c.Genes {
		if v >= Cardinalities[g] {
			return false
		}
	}
	return true
}

// Random draws a uniformly random valid candidate.
func Random(rng *rand.Rand) Candidate {
	var c Candidate
	for g := range c.Genes {
		c.Genes[g] = uint8(rng.Intn(int(Cardinalities[g])))
	}
	return c
}

// Mutate returns a copy with one gene changed to a different value —
// the neighborhood move both strategies build on.
func (c Candidate) Mutate(rng *rand.Rand) Candidate {
	g := rng.Intn(NGenes)
	n := int(Cardinalities[g])
	// Draw from the n-1 other values so a mutation always moves.
	v := rng.Intn(n - 1)
	if uint8(v) >= c.Genes[g] {
		v++
	}
	out := c
	out.Genes[g] = uint8(v)
	return out
}

// Less orders candidates lexicographically by genes — the
// deterministic tie-break when scores are equal.
func (c Candidate) Less(o Candidate) bool {
	return bytes.Compare(c.Genes[:], o.Genes[:]) < 0
}

// Label renders the candidate compactly:
// "re+4 com+0 relp=keep comlp=200 act=none".
func (c Candidate) Label() string {
	lp := func(i uint8) string {
		if LocalPrefChoices[i] == 0 {
			return "keep"
		}
		return fmt.Sprintf("%d", LocalPrefChoices[i])
	}
	act := "none"
	if c.Genes[GeneREAction] == 1 {
		act = "no-export"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "re+%d com+%d relp=%s comlp=%s act=%s",
		c.Genes[GeneREPrepend], c.Genes[GeneCommodityPrepend],
		lp(c.Genes[GeneRELocalPref]), lp(c.Genes[GeneCommodityLocalPref]), act)
	return b.String()
}
