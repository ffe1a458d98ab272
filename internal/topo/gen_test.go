package topo

import (
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/netutil"
)

func TestBuildSmallStructure(t *testing.T) {
	e := Build(SmallConfig())

	// Uniqueness invariants.
	seenAS := map[asn.AS]bool{}
	for _, info := range e.ASes {
		if seenAS[info.AS] {
			t.Errorf("duplicate AS %v", info.AS)
		}
		seenAS[info.AS] = true
		if e.Net.Speaker(info.Router) == nil {
			t.Errorf("AS %v has no speaker", info.AS)
		}
	}
	// RouterID 0 is the loc-RIB's neighbour key, and simnet.World reads
	// a terminal of 0 as none.
	if e.Net.Speaker(0) != nil {
		t.Error("RouterID 0 is a speaker")
	}
	seenP := map[netutil.Prefix]bool{}
	for _, pi := range e.Prefixes {
		if seenP[pi.Prefix] {
			t.Errorf("duplicate prefix %s", pi.Prefix)
		}
		seenP[pi.Prefix] = true
		if pi.Prefix == e.MeasPrefix {
			t.Error("measurement prefix allocated to a member")
		}
		origin := e.AS(pi.Origin)
		if origin == nil {
			t.Fatalf("prefix %s has unknown origin %v", pi.Prefix, pi.Origin)
		}
		if !e.REASNs[pi.Origin] {
			t.Errorf("origin %v of %s not in R&E AS set", pi.Origin, pi.Prefix)
		}
	}

	// Named actors exist and have the documented ASNs.
	for _, tt := range []struct {
		info *ASInfo
		as   asn.AS
	}{
		{e.Internet2, 11537}, {e.GEANT, 20965}, {e.SURF, 1103},
		{e.NORDUnet, 2603}, {e.NIKS, 3267}, {e.RIPE, 3333},
		{e.Lumen, 3356}, {e.Arelion, 1299}, {e.DTel, 3320},
		{e.MeasCommodity, 396955}, {e.MeasSURF, 1125},
	} {
		if tt.info == nil || tt.info.AS != tt.as {
			t.Fatalf("actor with AS %v missing or mislabeled: %+v", tt.as, tt.info)
		}
	}

	// Every member has an R&E provider; hidden-commodity members have
	// a commodity provider they do not announce to.
	members := 0
	for _, info := range e.ASes {
		if info.Class != ClassMember {
			continue
		}
		members++
		if len(info.REProviders) == 0 {
			t.Errorf("member %v has no R&E provider", info.AS)
		}
		if info.HiddenCommodity && len(info.CommodityProviders) == 0 {
			t.Errorf("member %v marked hidden-commodity without an upstream", info.AS)
		}
	}
	if want := SmallConfig().MembersUS + SmallConfig().MembersIntl + SmallConfig().NIKSCustomers; members < want/2 {
		t.Errorf("only %d members generated, want around %d", members, want)
	}

	// Collector wiring.
	if len(e.Collectors) != 2 {
		t.Fatalf("collectors = %d, want 2", len(e.Collectors))
	}
	vrf := 0
	for _, info := range e.ASes {
		if info.VRFSplit {
			vrf++
			if info.Policy != PolicyPreferRE {
				t.Errorf("VRF-split AS %v must prefer R&E (policy %v)", info.AS, info.Policy)
			}
		}
	}
	if vrf != SmallConfig().VRFSplitPeers {
		t.Errorf("VRF-split peers = %d, want %d", vrf, SmallConfig().VRFSplitPeers)
	}
	if len(e.MemberViewPeers) != SmallConfig().CollectorMemberPeers {
		t.Errorf("member view peers = %d, want %d", len(e.MemberViewPeers), SmallConfig().CollectorMemberPeers)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(SmallConfig())
	b := Build(SmallConfig())
	if len(a.ASes) != len(b.ASes) || len(a.Prefixes) != len(b.Prefixes) {
		t.Fatalf("sizes differ: %d/%d ASes, %d/%d prefixes",
			len(a.ASes), len(b.ASes), len(a.Prefixes), len(b.Prefixes))
	}
	for i := range a.ASes {
		x, y := a.ASes[i], b.ASes[i]
		if x.AS != y.AS || x.Policy != y.Policy || x.CommodityPrepend != y.CommodityPrepend ||
			x.REPrepend != y.REPrepend || x.HiddenCommodity != y.HiddenCommodity {
			t.Fatalf("AS %d differs between builds: %+v vs %+v", i, x, y)
		}
	}
	for i := range a.Prefixes {
		if a.Prefixes[i].Prefix != b.Prefixes[i].Prefix || a.Prefixes[i].Site != b.Prefixes[i].Site {
			t.Fatalf("prefix %d differs between builds", i)
		}
	}
	// A different seed must produce a different world.
	cfg := SmallConfig()
	cfg.Seed = 99
	c := Build(cfg)
	same := len(c.Prefixes) == len(a.Prefixes)
	if same {
		diff := false
		for i := range a.Prefixes {
			if a.Prefixes[i].Prefix != c.Prefixes[i].Prefix {
				diff = true
				break
			}
		}
		for i := range a.ASes {
			if a.ASes[i].Policy != c.ASes[i].Policy {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical worlds")
		}
	}
}

// announceMeasurement injects the measurement prefix the way the June
// (Internet2) experiment does and converges.
func announceJune(e *Ecosystem) {
	e.Net.Originate(e.MeasCommodity.Router, e.MeasPrefix)
	e.Net.Originate(e.Internet2.Router, e.MeasPrefix)
	e.Net.RunToQuiescence()
}

func TestMeasurementPrefixReachesEveryMember(t *testing.T) {
	e := Build(SmallConfig())
	announceJune(e)
	for _, info := range e.ASes {
		if info.Class != ClassMember {
			continue
		}
		if e.Net.Speaker(info.Router).Best(e.MeasPrefix) == nil {
			t.Errorf("member %v (%s) has no route to the measurement prefix", info.AS, info.Name)
		}
	}
}

func TestGroundTruthPoliciesDriveRouteChoice(t *testing.T) {
	e := Build(SmallConfig())
	announceJune(e)
	reOrigin := e.Internet2.Router
	commOrigin := e.MeasCommodity.Router

	checked := 0
	for _, info := range e.ASes {
		if info.Class != ClassMember || info.HiddenCommodity {
			continue
		}
		term, ok := specificTerminal(e.Net, info.Router, e.MeasPrefix)
		if !ok {
			t.Fatalf("member %v: no forward path", info.AS)
		}
		switch info.Policy {
		case PolicyPreferRE, PolicyDefaultOnly:
			if term != reOrigin {
				t.Errorf("member %v policy %v terminated at %v, want R&E origin", info.AS, info.Policy, term)
			}
		case PolicyPreferCommodity:
			if len(info.CommodityProviders) > 0 && term != commOrigin {
				t.Errorf("member %v prefers commodity but terminated at %v", info.AS, term)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no members checked")
	}
}

// specificTerminal follows best routes for p itself (no default-route
// fallback, unlike bgp.Catchment) from speaker id, and returns the
// speaker that originates p. ok is false on a missing route or a
// forwarding loop.
func specificTerminal(net *bgp.Network, id bgp.RouterID, p netutil.Prefix) (bgp.RouterID, bool) {
	// A walk that visits more routers than there are speakers loops.
	for n, visited := len(net.Speakers()), 0; visited < n; visited++ {
		next, ok := net.NextHop(id, p)
		if !ok {
			return 0, false
		}
		if next == id {
			return id, true
		}
		id = next
	}
	return 0, false
}

func TestHiddenCommodityInvisibleAtCollector(t *testing.T) {
	// A hidden-commodity member's prefixes must not be observable via
	// its commodity upstream in any collector-facing export.
	e := Build(SmallConfig())
	var hidden *ASInfo
	for _, info := range e.ASes {
		if info.Class == ClassMember && info.HiddenCommodity {
			hidden = info
			break
		}
	}
	if hidden == nil {
		t.Skip("no hidden-commodity member in this seed")
	}
	p := hidden.Prefixes[0]
	res := e.Net.SolveStatic(p, []bgp.StaticOrigin{{Speaker: hidden.Router}})
	if !res.Converged {
		t.Fatal("static solve did not converge")
	}
	// The commodity upstream must not have learned the prefix over the
	// hidden session (it may still hear it via the R&E provider's own
	// commodity announcements — that is the point of §4.2's caveat).
	for _, upAS := range hidden.CommodityProviders {
		up := e.AS(upAS)
		if r := res.Best(up.Router); r != nil && r.From == hidden.Router {
			t.Errorf("hidden upstream %v learned %v directly from the member", upAS, r)
		}
	}
	// The R&E provider must have one.
	re := e.AS(hidden.REProviders[0])
	if res.Best(re.Router) == nil {
		t.Error("R&E provider did not learn the member prefix")
	}
}

func TestNIKSLocalPrefStructure(t *testing.T) {
	// Figure 4: NIKS must hold a higher localpref session to GEANT
	// than to NORDUnet, and NORDUnet/Arelion sessions must be equal.
	e := Build(SmallConfig())
	niks := e.Net.Speaker(e.NIKS.Router)
	geant := niks.Peer(e.GEANT.Router)
	nord := niks.Peer(e.NORDUnet.Router)
	arel := niks.Peer(e.Arelion.Router)
	if geant == nil || nord == nil || arel == nil {
		t.Fatal("NIKS sessions missing")
	}
	if geant.ImportLocalPref <= nord.ImportLocalPref {
		t.Error("NIKS should prefer GEANT over NORDUnet")
	}
	if nord.ImportLocalPref != arel.ImportLocalPref {
		t.Error("NIKS should treat NORDUnet and Arelion equally")
	}
}

func TestNIKSBehaviourAcrossExperiments(t *testing.T) {
	// May (SURF origin): NIKS reaches the measurement prefix via GEANT
	// regardless of prepends. June (Internet2 origin): NIKS ties
	// NORDUnet with Arelion and follows AS path length.
	e := Build(SmallConfig())
	e.Net.Originate(e.MeasCommodity.Router, e.MeasPrefix)
	e.Net.Originate(e.MeasSURF.Router, e.MeasPrefix)
	e.Net.RunToQuiescence()
	best := e.Net.Speaker(e.NIKS.Router).Best(e.MeasPrefix)
	if best == nil || best.From != e.GEANT.Router {
		t.Fatalf("SURF experiment: NIKS best = %v, want via GEANT", best)
	}

	// Switch to the June origination.
	e.Net.WithdrawOrigination(e.MeasSURF.Router, e.MeasPrefix)
	e.Net.Originate(e.Internet2.Router, e.MeasPrefix)
	e.Net.RunToQuiescence()
	best = e.Net.Speaker(e.NIKS.Router).Best(e.MeasPrefix)
	if best == nil {
		t.Fatal("June experiment: NIKS unrouted")
	}
	if best.From == e.GEANT.Router {
		t.Error("June experiment: GEANT must not export the Internet2 route to peer NIKS")
	}
	// The R&E path (via NORDUnet) is length 2, commodity (via Arelion)
	// length 3: path length picks NORDUnet.
	if best.From != e.NORDUnet.Router {
		t.Errorf("June experiment: NIKS best from %v, want NORDUnet", best.From)
	}
	// Prepending the R&E announcement by 2 makes Arelion shorter.
	e.Net.SetPrefixPrepend(e.Internet2.Router, e.NORDUnet.Router, e.MeasPrefix, 2)
	e.Net.RunToQuiescence()
	best = e.Net.Speaker(e.NIKS.Router).Best(e.MeasPrefix)
	if best == nil || best.From != e.AS(1299).Router {
		t.Errorf("with R&E prepends NIKS should use Arelion, got %v", best)
	}
}

func TestRIPEEqualLocalPref(t *testing.T) {
	e := Build(SmallConfig())
	ripe := e.Net.Speaker(e.RIPE.Router)
	surf := ripe.Peer(e.SURF.Router)
	dt := ripe.Peer(e.DTel.Router)
	if surf == nil || dt == nil {
		t.Fatal("RIPE sessions missing")
	}
	if surf.ImportLocalPref != dt.ImportLocalPref {
		t.Error("RIPE must assign equal localpref to SURF and DT (§4.3, validated)")
	}
}

func TestDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale build skipped in -short")
	}
	e := Build(DefaultConfig())
	if got := len(e.Prefixes); got < 12000 || got > 26000 {
		t.Errorf("default scale prefixes = %d, want paper-like ~17K", got)
	}
	res := 0
	for _, info := range e.ASes {
		if info.Class == ClassMember {
			res++
		}
	}
	if res < 2200 || res > 2700 {
		t.Errorf("default scale members = %d, want ~2,430", res)
	}
}

func TestClassAndPolicyStrings(t *testing.T) {
	for c := Class(0); c <= ClassSpecial; c++ {
		if c.String() == "" {
			t.Errorf("class %d empty string", c)
		}
	}
	for p := REPolicy(0); p < numPolicies; p++ {
		if p.String() == "" {
			t.Errorf("policy %d empty string", p)
		}
	}
	for s := SiteKind(0); s <= SiteAltRE; s++ {
		if s.String() == "" {
			t.Errorf("site %d empty string", s)
		}
	}
}

func TestGenConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := SmallConfig().Validate(); err != nil {
		t.Fatalf("small config invalid: %v", err)
	}
	bad := []func(*GenConfig){
		func(c *GenConfig) { c.MembersUS = 0 },
		func(c *GenConfig) { c.TransitsIntl = 1 },
		func(c *GenConfig) { c.FracPreferRE = 1.5 },
		func(c *GenConfig) { c.FracRFD = -0.1 },
		func(c *GenConfig) { c.FracPreferRE, c.FracEqual = 0.8, 0.3 },
		func(c *GenConfig) { c.MeanExtraPrefixes = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Build should panic on invalid config")
		}
	}()
	cfg := DefaultConfig()
	cfg.MembersUS = 0
	Build(cfg)
}
