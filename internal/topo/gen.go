package topo

import (
	"fmt"
	"math/rand"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/netutil"
)

// GenConfig parametrizes the ecosystem generator. The zero value is
// not useful; start from DefaultConfig or SmallConfig.
type GenConfig struct {
	// Seed drives all random choices; equal seeds give identical
	// ecosystems.
	Seed int64

	// MembersUS / MembersIntl are the member AS counts attached to
	// U.S. regionals and to NRENs respectively. NIKSCustomers are
	// additional members single-homed behind NIKS (the Figure 4 /
	// Table 2 case study population).
	MembersUS     int
	MembersIntl   int
	NIKSCustomers int

	// TransitsUS / TransitsIntl are mid-tier commodity transit counts.
	TransitsUS   int
	TransitsIntl int

	// MeanExtraPrefixes is the mean of the geometric number of
	// prefixes each member originates beyond its first.
	MeanExtraPrefixes float64

	// Dual-homed member ground-truth policy mix (must sum to <= 1;
	// the remainder is PolicyDefaultOnly).
	FracPreferRE        float64
	FracEqual           float64
	FracPreferCommodity float64

	// FracSingleHomedProvidesCommodity / FracSingleHomedOther are the
	// probabilities that a member single-homes to its R&E provider,
	// depending on whether that provider sells commodity transit.
	FracSingleHomedProvidesCommodity float64
	FracSingleHomedOther             float64

	// FracHiddenCommodity is the fraction of single-homed members that
	// nevertheless use an unannounced commodity upstream for egress
	// (§4.2's "unobserved commodity transit").
	FracHiddenCommodity float64

	// Site mix for member prefixes (the remainder is SitePrimary).
	FracMixedPrefix        float64
	FracAltCommodityPrefix float64
	FracAltREPrefix        float64

	// CollectorMemberPeers is how many member ASes feed a public
	// collector (§4.1.1 found 26); VRFSplitPeers of them export their
	// commodity VRF to the collector.
	CollectorMemberPeers int
	VRFSplitPeers        int

	// FracRFD is the fraction of member ASes that enable route-flap
	// damping on their import sessions (Gray et al. 2020 measured
	// ~9%, the figure §3.3 cites when motivating the one-hour waits).
	FracRFD float64

	// FracCoveredPrefix is the probability that a member's extra
	// prefix is carved from inside one of its earlier (larger)
	// allocations — announcements entirely covered by another, which
	// the §3.2 target-list construction excludes (437 of 18,427 in
	// the paper).
	FracCoveredPrefix float64

	// ExtraCollectorFeeds adds commodity-side ASes whose only role is
	// to feed the public collectors, approximating RouteViews/RIS's
	// hundreds of peer sessions — the density behind Figure 3's
	// commodity-phase churn volume.
	ExtraCollectorFeeds int

	// DensePrefixes draws member allocations almost entirely from
	// /22-/24 (mean ~320 addresses) instead of the paper-scale mix
	// that includes /16s and /20s. Required at Internet scale: a
	// million allocations at the default mix would exhaust the IPv4
	// space the generator carves from.
	DensePrefixes bool

	// CompactRIB builds the network on the arena-backed RIB layout
	// (bgp.SetCompactRIB): interned AS paths, dense prefix indices,
	// packed route records. Required at Internet scale; byte-identical
	// observable behavior at any scale.
	CompactRIB bool
}

// DefaultConfig returns the paper-scale ecosystem (~2,600 R&E ASes,
// ~17K prefixes).
func DefaultConfig() GenConfig {
	return GenConfig{
		Seed:                             1,
		MembersUS:                        1330,
		MembersIntl:                      1060,
		NIKSCustomers:                    40,
		TransitsUS:                       22,
		TransitsIntl:                     26,
		MeanExtraPrefixes:                5.6,
		FracPreferRE:                     0.72,
		FracEqual:                        0.115,
		FracPreferCommodity:              0.075,
		FracSingleHomedProvidesCommodity: 0.74,
		FracSingleHomedOther:             0.12,
		FracHiddenCommodity:              0.10,
		FracMixedPrefix:                  0.05,
		FracAltCommodityPrefix:           0.025,
		FracAltREPrefix:                  0.014,
		CollectorMemberPeers:             26,
		VRFSplitPeers:                    3,
		FracRFD:                          0.09,
		FracCoveredPrefix:                0.045,
		ExtraCollectorFeeds:              220,
	}
}

// SmallConfig returns a reduced ecosystem (~250 members) for tests.
func SmallConfig() GenConfig {
	cfg := DefaultConfig()
	cfg.MembersUS = 140
	cfg.MembersIntl = 100
	cfg.NIKSCustomers = 8
	cfg.TransitsUS = 8
	cfg.TransitsIntl = 8
	cfg.MeanExtraPrefixes = 2.0
	cfg.CollectorMemberPeers = 12
	cfg.VRFSplitPeers = 2
	cfg.ExtraCollectorFeeds = 24
	return cfg
}

// Ecosystem is the generated world: the BGP network plus the ground
// truth the inference is scored against.
type Ecosystem struct {
	Cfg GenConfig
	Net *bgp.Network

	// ASes in ascending AS order.
	ASes     []*ASInfo
	byAS     map[asn.AS]*ASInfo
	byRouter map[bgp.RouterID]*ASInfo

	// Prefixes of all R&E-connected origins (the §3.2 Participant and
	// Peer-NREN study set), canonical order.
	Prefixes []*PrefixInfo
	// ExcludedPrefixes belong to Internet2's other neighbor classes
	// (Peer-NET+, Peer-FedNet) and are deliberately outside the study.
	ExcludedPrefixes []*PrefixInfo
	byPrefix         map[netutil.Prefix]*PrefixInfo

	// REASNs is the R&E AS set of §4.2 (members, regionals, NRENs,
	// backbones): origins plus R&E transit.
	REASNs map[asn.AS]bool

	// Named actors.
	Internet2, GEANT, SURF, NORDUnet, NIKS *ASInfo
	RIPE                                   *ASInfo
	Lumen, Arelion, DTel                   *ASInfo
	MeasCommodity, MeasSURF                *ASInfo

	// Collectors are the public-view speakers; CollectorPeerASes the
	// ASes feeding them; MemberViewPeers the member subset (§4.1.1).
	Collectors        []bgp.RouterID
	CollectorPeerASes []asn.AS
	MemberViewPeers   []asn.AS

	// MeasPrefix is the measurement prefix (§3.1).
	MeasPrefix netutil.Prefix

	rng        *rand.Rand
	nextRouter bgp.RouterID
	allocCur   uint32
}

// AS returns the ASInfo for a, or nil.
func (e *Ecosystem) AS(a asn.AS) *ASInfo { return e.byAS[a] }

// ByRouter returns the ASInfo owning router id, or nil.
func (e *Ecosystem) ByRouter(id bgp.RouterID) *ASInfo { return e.byRouter[id] }

// PrefixInfoFor returns the PrefixInfo for p, or nil.
func (e *Ecosystem) PrefixInfoFor(p netutil.Prefix) *PrefixInfo { return e.byPrefix[p] }

// Validate reports configuration errors: counts must be positive and
// every fraction must be a probability (with the policy mix summing to
// at most one).
func (cfg GenConfig) Validate() error {
	if cfg.MembersUS < 1 || cfg.MembersIntl < 1 {
		return fmt.Errorf("topo: member counts must be positive (US=%d intl=%d)", cfg.MembersUS, cfg.MembersIntl)
	}
	if cfg.TransitsUS < 2 || cfg.TransitsIntl < 3 {
		return fmt.Errorf("topo: need at least 2 US and 3 intl transits (got %d/%d)", cfg.TransitsUS, cfg.TransitsIntl)
	}
	fracs := map[string]float64{
		"FracCoveredPrefix":                cfg.FracCoveredPrefix,
		"FracPreferRE":                     cfg.FracPreferRE,
		"FracEqual":                        cfg.FracEqual,
		"FracPreferCommodity":              cfg.FracPreferCommodity,
		"FracSingleHomedProvidesCommodity": cfg.FracSingleHomedProvidesCommodity,
		"FracSingleHomedOther":             cfg.FracSingleHomedOther,
		"FracHiddenCommodity":              cfg.FracHiddenCommodity,
		"FracMixedPrefix":                  cfg.FracMixedPrefix,
		"FracAltCommodityPrefix":           cfg.FracAltCommodityPrefix,
		"FracAltREPrefix":                  cfg.FracAltREPrefix,
		"FracRFD":                          cfg.FracRFD,
	}
	for name, v := range fracs {
		if v < 0 || v > 1 {
			return fmt.Errorf("topo: %s = %v outside [0,1]", name, v)
		}
	}
	if sum := cfg.FracPreferRE + cfg.FracEqual + cfg.FracPreferCommodity; sum > 1 {
		return fmt.Errorf("topo: policy mix sums to %v > 1", sum)
	}
	if sum := cfg.FracMixedPrefix + cfg.FracAltCommodityPrefix + cfg.FracAltREPrefix; sum > 1 {
		return fmt.Errorf("topo: site mix sums to %v > 1", sum)
	}
	if cfg.MeanExtraPrefixes < 0 {
		return fmt.Errorf("topo: MeanExtraPrefixes = %v negative", cfg.MeanExtraPrefixes)
	}
	return nil
}

// Build generates the ecosystem. The configuration must Validate; a
// malformed one panics, since every caller constructs it from the
// checked defaults.
func Build(cfg GenConfig) *Ecosystem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	net := bgp.NewNetwork()
	net.SetCompactRIB(cfg.CompactRIB)
	e := &Ecosystem{
		Cfg:        cfg,
		Net:        net,
		byAS:       make(map[asn.AS]*ASInfo),
		byRouter:   make(map[bgp.RouterID]*ASInfo),
		byPrefix:   make(map[netutil.Prefix]*PrefixInfo),
		REASNs:     make(map[asn.AS]bool),
		rng:        rand.New(rand.NewSource(cfg.Seed)), // #nosec deterministic simulation
		nextRouter: 1,
		allocCur:   0x10000000, // 16.0.0.0
	}
	e.MeasPrefix = netutil.MustParsePrefix("163.253.63.0/24")

	e.buildCommodityCore()
	e.buildREBackbones()
	e.buildOtherI2Neighbors()
	e.buildNRENs()
	e.buildRegionals()
	e.buildRIPE()
	e.buildMembers()
	e.buildCollectors()
	e.buildMeasurementOrigins()
	e.assignDelays()
	return e
}

// assignDelays gives every session a deterministic 1-5s propagation
// delay. Uneven delays make updates arrive via different paths at
// different times, so routers explore transient best paths — the
// source of the update churn bursts Figure 3 shows on the commodity
// side.
func (e *Ecosystem) assignDelays() {
	for _, id := range e.Net.Speakers() {
		s := e.Net.Speaker(id)
		for _, nb := range s.Peers() {
			pcN := s.Peer(nb)
			pcN.Delay = bgp.Time(1 + (uint32(id)*31+uint32(nb)*17)%5)
		}
	}
}

// addAS creates an AS with a speaker.
func (e *Ecosystem) addAS(a asn.AS, name string, class Class, region string) *ASInfo {
	if e.byAS[a] != nil {
		panic(fmt.Sprintf("topo: duplicate AS %v (%s)", a, name))
	}
	id := e.nextRouter
	e.nextRouter++
	e.Net.AddSpeaker(id, a, name)
	info := &ASInfo{AS: a, Router: id, Name: name, Class: class, Region: region}
	e.ASes = append(e.ASes, info)
	e.byAS[a] = info
	e.byRouter[id] = info
	return info
}

// allocPrefix carves the next aligned block of the given length.
func (e *Ecosystem) allocPrefix(bits int) netutil.Prefix {
	size := uint32(1) << (32 - uint(bits))
	// Align the cursor.
	if rem := e.allocCur % size; rem != 0 {
		e.allocCur += size - rem
	}
	p := netutil.PrefixFrom(e.allocCur, bits)
	e.allocCur += size
	return p
}

// connect presets ------------------------------------------------------

// customer wires provider<-customer with Gao-Rexford defaults; lpAtCust
// is the customer's import localpref for the provider's routes.
func (e *Ecosystem) customer(provider, cust *ASInfo, lpAtCust uint32) {
	e.Net.Connect(provider.Router, cust.Router,
		bgp.PeerConfig{
			ClassifyAs:      bgp.ClassCustomer,
			ImportLocalPref: bgp.LocalPrefCustomer,
			ExportAllow:     bgp.GaoRexfordExport(bgp.ClassCustomer),
		},
		bgp.PeerConfig{
			ClassifyAs:      bgp.ClassProvider,
			ImportLocalPref: lpAtCust,
			ExportAllow:     bgp.GaoRexfordExport(bgp.ClassProvider),
		})
}

// peer wires a settlement-free peering.
func (e *Ecosystem) peer(a, b *ASInfo) {
	cfg := bgp.PeerConfig{
		ClassifyAs:      bgp.ClassPeer,
		ImportLocalPref: bgp.LocalPrefPeer,
		ExportAllow:     bgp.GaoRexfordExport(bgp.ClassPeer),
	}
	e.Net.Connect(a.Router, b.Router, cfg, cfg)
}

// rePeer wires an R&E fabric peering (routes re-exported across the
// fabric, §2.1); lp applies on both sides.
func (e *Ecosystem) rePeer(a, b *ASInfo, lp uint32) {
	cfg := bgp.PeerConfig{
		ClassifyAs:      bgp.ClassREPeer,
		ImportLocalPref: lp,
		ExportAllow:     bgp.GaoRexfordExport(bgp.ClassREPeer),
	}
	e.Net.Connect(a.Router, b.Router, cfg, cfg)
}

// localpref tiers used by generated networks. R&E transit networks
// prefer the R&E fabric over their commodity transit; members apply
// their ground-truth policy.
const (
	lpREFabric    = 150 // R&E transit's localpref for backbone/NREN routes
	lpREPreferred = 120 // member's R&E session when policy prefers R&E
	lpFlat        = 100 // provider default (commodity, or equal-policy R&E)
	lpNIKSGEANT   = 185 // NIKS's documented higher localpref for GEANT
)

// world-building ------------------------------------------------------

func (e *Ecosystem) buildCommodityCore() {
	var tier1s []*ASInfo
	for _, t := range tier1Table {
		info := e.addAS(asn.AS(t.as), t.name, ClassTier1, "")
		tier1s = append(tier1s, info)
	}
	for i := range tier1s {
		for j := i + 1; j < len(tier1s); j++ {
			e.peer(tier1s[i], tier1s[j])
		}
	}
	// Tier-1s originate a default route toward their customer cones
	// (never across the mesh), so "import only a default route"
	// members (§1's Figure 1 alternative) still have commodity
	// reachability when no specific route exists.
	for i := range tier1s {
		for j := range tier1s {
			if i == j {
				continue
			}
			e.Net.SetExportFilter(tier1s[i].Router, tier1s[j].Router, func(r *bgp.Route) bool {
				return r.Prefix != bgp.DefaultPrefix
			})
		}
		e.Net.Originate(tier1s[i].Router, bgp.DefaultPrefix)
	}
	e.Lumen = e.byAS[asLumen]
	e.Arelion = e.byAS[asArelion]
	e.DTel = e.byAS[asDT]

	// U.S. transits: customers of two tier-1s, always including Lumen
	// for half of them (short Lumen->transit->member commodity paths).
	// DT is excluded from U.S. wiring: it is RIPE's and the European
	// NRENs' provider, and keeping it off the U.S. side preserves the
	// §4.3 asymmetry between the German and New York cases.
	usTier1s := make([]*ASInfo, 0, len(tier1s))
	for _, t := range tier1s {
		if t.AS != asDT {
			usTier1s = append(usTier1s, t)
		}
	}
	for i := 0; i < e.Cfg.TransitsUS; i++ {
		info := e.addAS(asn.AS(64100+i), fmt.Sprintf("transit-us-%d", i), ClassTransit, "US")
		if i%2 == 0 {
			e.customer(e.Lumen, info, lpFlat)
			e.customer(usTier1s[1+(i/2)%(len(usTier1s)-1)], info, lpFlat)
		} else {
			a := usTier1s[i%len(usTier1s)]
			b := usTier1s[(i+3)%len(usTier1s)]
			e.customer(a, info, lpFlat)
			if b != a {
				e.customer(b, info, lpFlat)
			}
		}
	}
	// International transits: customers of non-Lumen tier-1s, so the
	// commodity path from the measurement prefix crosses a tier-1
	// peering edge (one hop longer than the U.S. case). Every third
	// one is a second-tier reseller homed on earlier intl transits
	// only, giving some international members commodity paths another
	// hop longer still (the Appendix B spread).
	for i := 0; i < e.Cfg.TransitsIntl; i++ {
		info := e.addAS(asn.AS(64300+i), fmt.Sprintf("transit-intl-%d", i), ClassTransit, "")
		if i%3 == 2 {
			e.customer(e.byAS[asn.AS(64300+i-1)], info, lpFlat)
			e.customer(e.byAS[asn.AS(64300+i-2)], info, lpFlat)
			continue
		}
		t1 := tier1s[1+(i%(len(tier1s)-1))] // skip Lumen
		e.customer(t1, info, lpFlat)
		if i%3 == 0 {
			t2 := tier1s[1+((i+2)%(len(tier1s)-1))]
			if t2 != t1 {
				e.customer(t2, info, lpFlat)
			}
		}
	}
}

func (e *Ecosystem) buildREBackbones() {
	e.Internet2 = e.addAS(asInternet2, "Internet2", ClassBackbone, "US")
	e.GEANT = e.addAS(asGEANT, "GEANT", ClassBackbone, "EU")
	e.rePeer(e.Internet2, e.GEANT, lpREFabric)
	e.REASNs[asInternet2] = true
	e.REASNs[asGEANT] = true
}

// buildOtherI2Neighbors creates the Internet2 neighbor classes the
// study excludes (§2.1): cloud/content peers (Peer-NET+) and federal
// networks (Peer-FedNet). Their prefixes are recorded so the §3.2
// target-list construction has something real to filter out.
func (e *Ecosystem) buildOtherI2Neighbors() {
	wire := func(info *ASInfo) {
		// Ordinary peering with Internet2: no R&E fabric re-export.
		e.peer(e.Internet2, info)
		// Commodity transit from two tier-1s.
		e.customer(e.Lumen, info, lpFlat)
		e.customer(e.Arelion, info, lpFlat)
		info.CommodityProviders = append(info.CommodityProviders, asLumen, asArelion)
	}
	clouds := []struct {
		name string
		as   uint32
	}{
		{"CloudOne", 64801}, {"CloudTwo", 64802}, {"ContentA", 64803},
		{"ContentB", 64804}, {"CloudEdge", 64805}, {"CDN-X", 64806},
	}
	for _, c := range clouds {
		info := e.addAS(asn.AS(c.as), c.name, ClassPeerNETPlus, "US")
		info.Policy = PolicyPreferCommodity // not expected to prefer R&E
		wire(info)
		e.originateExcluded(info, 2+e.rng.Intn(3))
	}
	feds := []struct {
		name string
		as   uint32
	}{
		{"FedNet-A", 64851}, {"FedNet-B", 64852}, {"FedNet-C", 64853}, {"FedNet-D", 64854},
	}
	for _, f := range feds {
		info := e.addAS(asn.AS(f.as), f.name, ClassFedNet, "US")
		info.Policy = PolicyEqual
		wire(info)
		e.originateExcluded(info, 1+e.rng.Intn(2))
	}
}

// originateExcluded records prefixes for a non-studied neighbor class;
// they appear in ExcludedPrefixes, never in Prefixes.
func (e *Ecosystem) originateExcluded(info *ASInfo, count int) {
	for i := 0; i < count; i++ {
		p := e.allocPrefix(e.prefixBits())
		info.Prefixes = append(info.Prefixes, p)
		e.ExcludedPrefixes = append(e.ExcludedPrefixes, &PrefixInfo{
			Prefix:        p,
			Origin:        info.AS,
			NeighborClass: info.Class,
			Region:        info.Region,
			Site:          SitePrimary,
		})
	}
}

func (e *Ecosystem) buildNRENs() {
	for _, spec := range nrenTable {
		info := e.addAS(asn.AS(spec.as), spec.name, ClassPeerNREN, spec.region)
		info.Policy = PolicyPreferRE
		info.ProvidesCommodity = spec.providesCommodity
		info.CommodityPrepend = spec.commodityPrepend
		e.REASNs[info.AS] = true

		if spec.name == "NIKS" {
			continue // wired below with its documented localprefs
		}
		// NREN <- GEANT as R&E upstream.
		e.customer(e.GEANT, info, lpREFabric)
		info.REProviders = append(info.REProviders, asGEANT)
		// Direct Internet2 fabric peering for the majors.
		if spec.i2Peer {
			e.rePeer(e.Internet2, info, lpREFabric)
		}
		// Commodity transit.
		var upstream *ASInfo
		if spec.usesDT {
			upstream = e.DTel
		} else {
			upstream = e.pickTransitIntl()
		}
		e.Net.Connect(upstream.Router, info.Router,
			bgp.PeerConfig{
				ClassifyAs:      bgp.ClassCustomer,
				ImportLocalPref: bgp.LocalPrefCustomer,
				ExportAllow:     bgp.GaoRexfordExport(bgp.ClassCustomer),
			},
			bgp.PeerConfig{
				ClassifyAs:      bgp.ClassProvider,
				ImportLocalPref: lpFlat,
				ExportAllow:     bgp.GaoRexfordExport(bgp.ClassProvider),
				ExportPrepend:   spec.commodityPrepend,
			})
		info.CommodityProviders = append(info.CommodityProviders, upstream.AS)
	}

	// NIKS (Figure 4): peers with GEANT at localpref 185, buys global
	// transit from NORDUnet and Arelion at the same localpref 100, so
	// Internet2-origin routes (via NORDUnet) tie-break with commodity
	// routes (via Arelion) on AS path length.
	e.SURF = e.byAS[1103]
	e.NORDUnet = e.byAS[2603]
	e.NIKS = e.byAS[3267]
	e.Net.Connect(e.GEANT.Router, e.NIKS.Router,
		bgp.PeerConfig{
			ClassifyAs:      bgp.ClassPeer,
			ImportLocalPref: bgp.LocalPrefPeer,
			ExportAllow:     bgp.GaoRexfordExport(bgp.ClassPeer),
		},
		bgp.PeerConfig{
			ClassifyAs:      bgp.ClassPeer,
			ImportLocalPref: lpNIKSGEANT,
			ExportAllow:     bgp.GaoRexfordExport(bgp.ClassPeer),
		})
	e.customer(e.NORDUnet, e.NIKS, lpFlat)
	e.customer(e.Arelion, e.NIKS, lpFlat)
	e.NIKS.Policy = PolicyEqual // w.r.t. NORDUnet vs Arelion
	e.NIKS.REProviders = append(e.NIKS.REProviders, 2603)
	e.NIKS.CommodityProviders = append(e.NIKS.CommodityProviders, asArelion)
}

func (e *Ecosystem) buildRegionals() {
	for _, spec := range regionalTable {
		info := e.addAS(asn.AS(spec.as), spec.name, ClassParticipant, spec.region)
		info.Policy = PolicyPreferRE
		info.ProvidesCommodity = spec.providesCommodity
		info.CommodityPrepend = spec.commodityPrepend
		e.REASNs[info.AS] = true
		// Regional <- Internet2 (Participant: customer in the routing
		// sense, §2.1).
		e.customer(e.Internet2, info, lpREFabric)
		info.REProviders = append(info.REProviders, asInternet2)
		if spec.providesCommodity {
			up := e.pickTransitUS()
			e.Net.Connect(up.Router, info.Router,
				bgp.PeerConfig{
					ClassifyAs:      bgp.ClassCustomer,
					ImportLocalPref: bgp.LocalPrefCustomer,
					ExportAllow:     bgp.GaoRexfordExport(bgp.ClassCustomer),
				},
				bgp.PeerConfig{
					ClassifyAs:      bgp.ClassProvider,
					ImportLocalPref: lpFlat,
					ExportAllow:     bgp.GaoRexfordExport(bgp.ClassProvider),
					ExportPrepend:   spec.commodityPrepend,
				})
			info.CommodityProviders = append(info.CommodityProviders, up.AS)
		}
	}
}

func (e *Ecosystem) buildRIPE() {
	// RIPE (§4.3): R&E-connected via SURF, commodity via DT, with the
	// validated equal-localpref policy.
	e.RIPE = e.addAS(asRIPE, "RIPE", ClassSpecial, "NL")
	e.RIPE.Policy = PolicyEqual
	e.customer(e.SURF, e.RIPE, lpFlat)
	e.customer(e.GEANT, e.RIPE, lpFlat)
	e.customer(e.DTel, e.RIPE, lpFlat)
	e.RIPE.REProviders = append(e.RIPE.REProviders, 1103, asGEANT)
	e.RIPE.CommodityProviders = append(e.RIPE.CommodityProviders, asDT)
}

func (e *Ecosystem) buildMeasurementOrigins() {
	// Commodity origin AS 396955, customer of Lumen (§3.3).
	e.MeasCommodity = e.addAS(asMeasCommodity, "meas-commodity", ClassSpecial, "US")
	e.customer(e.Lumen, e.MeasCommodity, lpFlat)
	// SURF-experiment R&E origin AS 1125, customer of SURF.
	e.MeasSURF = e.addAS(asMeasSURF, "meas-surf", ClassSpecial, "NL")
	e.customer(e.SURF, e.MeasSURF, lpREPreferred)
	// The Internet2 experiment originates from Internet2 itself
	// (origin AS 11537), so no extra speaker is needed.

	// §3.1 verified that "commodity providers did not learn the R&E
	// path": SURF scopes the measurement announcement to R&E sessions,
	// never its commodity transit (Internet2 and GEANT have no
	// commodity transit, and elsewhere Gao-Rexford classes already
	// prevent the leak).
	meas := e.MeasPrefix
	for _, upAS := range e.SURF.CommodityProviders {
		if up := e.byAS[upAS]; up != nil {
			e.Net.SetExportFilter(e.SURF.Router, up.Router, func(r *bgp.Route) bool { return r.Prefix != meas })
		}
	}
}

func (e *Ecosystem) pickTransitUS() *ASInfo {
	i := e.rng.Intn(e.Cfg.TransitsUS)
	return e.byAS[asn.AS(64100+i)]
}

func (e *Ecosystem) pickTransitIntl() *ASInfo {
	i := e.rng.Intn(e.Cfg.TransitsIntl)
	return e.byAS[asn.AS(64300+i)]
}

func (e *Ecosystem) pickTier1() *ASInfo {
	t := tier1Table[e.rng.Intn(len(tier1Table))]
	return e.byAS[asn.AS(t.as)]
}
