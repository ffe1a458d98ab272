package topo

import (
	"testing"

	"repro/internal/bgp"
)

// TestDefaultRoutePropagation: every member with announced commodity
// transit holds a default route; the R&E-only world does not.
func TestDefaultRoutePropagation(t *testing.T) {
	e := Build(SmallConfig())
	e.Net.RunToQuiescence()
	withDefault, withoutDefault := 0, 0
	for _, info := range e.ASes {
		if info.Class != ClassMember {
			continue
		}
		has := e.Net.Speaker(info.Router).Best(bgp.DefaultPrefix) != nil
		switch {
		case len(info.CommodityProviders) > 0 && !has:
			t.Errorf("member %v has commodity transit but no default route", info.AS)
		case has:
			withDefault++
		default:
			withoutDefault++
		}
	}
	if withDefault == 0 {
		t.Fatal("no member holds a default route")
	}
	// Internet2 and GEANT are transit-free R&E backbones: no default.
	if e.Net.Speaker(e.Internet2.Router).Best(bgp.DefaultPrefix) != nil {
		t.Error("Internet2 should not hold a commodity default route")
	}
	// The default never crosses the tier-1 mesh: each tier-1's default
	// is its own origination.
	for _, t1 := range []*ASInfo{e.Lumen, e.Arelion, e.DTel} {
		best := e.Net.Speaker(t1.Router).Best(bgp.DefaultPrefix)
		if best == nil || best.From != 0 {
			t.Errorf("tier-1 %v default = %v, want own origination", t1.AS, best)
		}
	}
}

// TestDefaultOnlyMemberFallsBackToDefault pins the Figure 1
// alternative end to end: a default-only importer uses the specific
// R&E route when present, and its commodity default when the R&E
// announcement disappears.
func TestDefaultOnlyMemberFallsBackToDefault(t *testing.T) {
	e := Build(SmallConfig())
	// Pick a default-only member whose R&E provider has no commodity
	// transit of its own (NYSERNet-style): once the R&E announcement
	// is withdrawn, no specific route can reach the member from any
	// side, so its commodity default is all that remains.
	var m *ASInfo
	for _, info := range e.ASes {
		if info.Class != ClassMember || info.Policy != PolicyDefaultOnly || len(info.CommodityProviders) == 0 {
			continue
		}
		re := e.AS(info.REProviders[0])
		if re != nil && len(re.CommodityProviders) == 0 {
			m = info
			break
		}
	}
	if m == nil {
		t.Skip("no suitable default-only member in this seed")
	}
	net := e.Net
	net.Originate(e.MeasCommodity.Router, e.MeasPrefix)
	net.Originate(e.Internet2.Router, e.MeasPrefix)
	net.RunToQuiescence()

	// With the R&E announcement up: the specific (R&E-only, since the
	// commodity specific is denied) wins.
	best := net.Speaker(m.Router).Best(e.MeasPrefix)
	if best == nil {
		t.Fatal("default-only member lacks the specific R&E route")
	}
	term, hops, ok := net.Catchment(e.MeasPrefix).Terminal(m.Router)
	if !ok || term != e.Internet2.Router {
		t.Fatalf("with R&E up, forwarding ends at %v in %d hops (ok=%v), want Internet2", term, hops, ok)
	}

	// Withdraw the R&E announcement: no specific remains, the default
	// carries traffic to the commodity origin.
	net.WithdrawOrigination(e.Internet2.Router, e.MeasPrefix)
	net.RunToQuiescence()
	if net.Speaker(m.Router).Best(e.MeasPrefix) != nil {
		t.Fatal("specific route survived withdrawal")
	}
	term, hops, ok = net.Catchment(e.MeasPrefix).Terminal(m.Router)
	if !ok {
		t.Fatal("no default fallback: forwarding has no terminal")
	}
	if term != e.MeasCommodity.Router {
		t.Errorf("default walk ended at %v in %d hops, want commodity origin", term, hops)
	}
}
