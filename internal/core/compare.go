package core

import (
	"repro/internal/asn"
	"repro/internal/report"
	"repro/internal/topo"
)

// Comparison is Table 2: prefix-level agreement between the two
// experiments run a week apart with the same probe seeds.
type Comparison struct {
	// Incomparable prefixes, by reason (§4: loss, mixed, oscillating,
	// switch-to-commodity make policies ambiguous or unobservable).
	PacketLoss        int
	Mixed             int
	Oscillating       int
	SwitchToCommodity int
	// Matrix[a][b] counts comparable prefixes inferred a in the first
	// experiment and b in the second, for a,b in {AlwaysCommodity,
	// AlwaysRE, SwitchToRE}.
	Matrix map[Inference]map[Inference]int
	// Same / Different / Comparable are the totals.
	Same       int
	Different  int
	Comparable int
	// DifferencesVia counts differing prefixes whose origin sits
	// behind the named transit (the paper attributes 161 of 363 to
	// NIKS).
	DifferencesViaNIKS int
	// ASesWithDifference counts origin ASes with >=1 differing prefix.
	ASesWithDifference int
}

// comparableInferences are the categories that survive into the
// comparison matrix.
var comparableInferences = []Inference{InfAlwaysCommodity, InfAlwaysRE, InfSwitchToRE}

// Compare builds Table 2 from the two experiment results.
func Compare(eco *topo.Ecosystem, surf, i2 *Result) *Comparison {
	c := &Comparison{Matrix: make(map[Inference]map[Inference]int)}
	for _, a := range comparableInferences {
		c.Matrix[a] = make(map[Inference]int)
	}
	niksSet := niksCustomers(eco)
	diffAS := make(map[asn.AS]bool)

	for _, a := range surf.PerPrefix {
		b := i2.Find(a.Prefix)
		if b == nil {
			continue
		}
		ia, ib := a.Inference, b.Inference
		switch {
		case ia == InfUnresponsive || ib == InfUnresponsive ||
			ia == InfInsufficientData || ib == InfInsufficientData:
			c.PacketLoss++
			continue
		case ia == InfMixed || ib == InfMixed:
			c.Mixed++
			continue
		case ia == InfOscillating || ib == InfOscillating:
			c.Oscillating++
			continue
		case ia == InfSwitchToCommodity || ib == InfSwitchToCommodity:
			c.SwitchToCommodity++
			continue
		}
		c.Comparable++
		c.Matrix[ia][ib]++
		if ia == ib {
			c.Same++
		} else {
			c.Different++
			pi := eco.PrefixInfoFor(a.Prefix)
			if pi != nil {
				diffAS[pi.Origin] = true
				if niksSet[pi.Origin] {
					c.DifferencesViaNIKS++
				}
			}
		}
	}
	c.ASesWithDifference = len(diffAS)
	return c
}

// niksCustomers returns the origin ASes whose only R&E transit is
// NIKS (the population whose inferences differ between experiments).
func niksCustomers(eco *topo.Ecosystem) map[asn.AS]bool {
	out := make(map[asn.AS]bool)
	if eco.NIKS == nil {
		return out
	}
	for _, info := range eco.ASes {
		if info.Class != topo.ClassMember {
			continue
		}
		for _, re := range info.REProviders {
			if re == eco.NIKS.AS {
				out[info.AS] = true
			}
		}
	}
	return out
}

// Incomparable returns the total excluded prefixes.
func (c *Comparison) Incomparable() int {
	return c.PacketLoss + c.Mixed + c.Oscillating + c.SwitchToCommodity
}

// Table renders the Table 2 layout.
func (c *Comparison) Table() *report.Table {
	t := &report.Table{
		Title:   "Table 2: comparison of SURF and Internet2 results",
		Headers: []string{"SURF (May)", "Internet2 (June)", "Prefixes", ""},
	}
	t.AddRow("Packet loss", "", itoa(c.PacketLoss), "")
	t.AddRow("Mixed R&E + commodity", "", itoa(c.Mixed), "")
	t.AddRow("Oscillating", "", itoa(c.Oscillating), "")
	t.AddRow("Switch to commodity", "", itoa(c.SwitchToCommodity), "")
	t.AddRow("Incomparable prefixes:", "", itoa(c.Incomparable()), "")
	t.AddRow("", "", "", "")
	for _, a := range comparableInferences {
		for _, b := range comparableInferences {
			if a == b {
				continue
			}
			if n := c.Matrix[a][b]; n > 0 {
				t.AddRow(a.String(), b.String(), itoa(n), report.Pct(n, c.Comparable))
			}
		}
	}
	t.AddRow("Different inferences:", "", itoa(c.Different), report.Pct(c.Different, c.Comparable))
	for _, a := range comparableInferences {
		n := c.Matrix[a][a]
		t.AddRow(a.String(), a.String(), itoa(n), report.Pct(n, c.Comparable))
	}
	t.AddRow("Same inferences:", "", itoa(c.Same), report.Pct(c.Same, c.Comparable))
	t.AddRow("Comparable prefixes:", "", itoa(c.Comparable), "")
	return t
}
