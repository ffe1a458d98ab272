// Package simnet is the data-plane substrate: the responsive systems
// ("passive VPs" in the paper's terminology) living inside R&E
// prefixes, and the multi-VLAN measurement host that tells an R&E
// return path from a commodity one by the interface a response
// arrives on (§3.1, Figure 2).
package simnet

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/bgp"
	"repro/internal/netutil"
	"repro/internal/parallel"
	"repro/internal/slab"
	"repro/internal/topo"
)

// Proto is the probe/response protocol of a system.
type Proto uint8

// Protocols (§3.2: ICMP seeds from the ISI history, TCP and UDP seeds
// from Censys).
const (
	ICMP Proto = iota
	TCP
	UDP
)

func (p Proto) String() string {
	switch p {
	case ICMP:
		return "icmp"
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// VLAN identifies the measurement-host interface a response arrived
// on, which is the experiment's entire signal.
type VLAN uint8

// VLANs, named after the Figure 2 interfaces.
const (
	// VLANNone means no response arrived.
	VLANNone VLAN = iota
	// VLANRE is the R&E interface (ens3f1np1.1001 / .17).
	VLANRE
	// VLANCommodity is the commodity interface (ens3f1np1.18).
	VLANCommodity
)

func (v VLAN) String() string {
	switch v {
	case VLANRE:
		return "re"
	case VLANCommodity:
		return "commodity"
	default:
		return "none"
	}
}

// Interface returns the Figure 2 interface name for the VLAN.
func (v VLAN) Interface() string {
	switch v {
	case VLANRE:
		return "ens3f1np1.1001"
	case VLANCommodity:
		return "ens3f1np1.18"
	default:
		return ""
	}
}

// Host is one responsive system.
type Host struct {
	Addr   uint32
	Prefix netutil.Prefix
	Proto  Proto
	// Egress is the router whose routing decides this host's return
	// path. Usually the origin AS's router; alternate-site hosts
	// (§4.1.2's interconnection-router case) egress elsewhere.
	Egress bgp.RouterID
	// DormantFrom/DormantTo bound a window of unresponsiveness
	// (packet loss in the paper's Table 2 accounting); zero-zero
	// means always responsive.
	DormantFrom, DormantTo bgp.Time
}

// dormant reports whether the host is unresponsive at time t.
func (h *Host) dormant(t bgp.Time) bool {
	return h.DormantTo > h.DormantFrom && t >= h.DormantFrom && t < h.DormantTo
}

// WorldConfig tunes host generation.
type WorldConfig struct {
	Seed int64
	// FracPrefixResponsive is the fraction of prefixes hosting at
	// least one currently responsive system (§3.2 found 68%).
	FracPrefixResponsive float64
	// FracThreeHosts / FracTwoHosts split responsive prefixes by
	// system count (the remainder get one); §3.2: 82.7% had three.
	FracThreeHosts float64
	FracTwoHosts   float64
	// FracICMP is the fraction of prefixes whose systems answer ICMP
	// (ISI-seeded); the rest answer TCP or UDP (Censys-seeded).
	FracICMP float64
	// FracHostProtoFlip is the per-host probability of answering a
	// different protocol than the prefix's norm, the source of
	// mixed-seed-origin prefixes (§3.2 found 2.1%).
	FracHostProtoFlip float64
	// FracDormantPrefix is the per-experiment probability that a
	// prefix's systems all go quiet for a window (packet loss).
	FracDormantPrefix float64
	// ProbeLossProb is the per-probe random loss probability.
	ProbeLossProb float64
}

// DefaultWorldConfig matches the paper's coverage statistics.
func DefaultWorldConfig() WorldConfig {
	return WorldConfig{
		Seed:                 7,
		FracPrefixResponsive: 0.74,
		FracThreeHosts:       0.80,
		FracTwoHosts:         0.12,
		FracICMP:             0.78,
		FracHostProtoFlip:    0.04,
		FracDormantPrefix:    0.012,
		ProbeLossProb:        0.001,
	}
}

// World binds hosts to the BGP network and answers probes.
type World struct {
	Net        *bgp.Network
	MeasPrefix netutil.Prefix

	// RETerminal / CommodityTerminal are the origin routers whose
	// forwarding termination means the response arrived on the R&E or
	// commodity VLAN; 0 names none, since no generated ecosystem has a
	// speaker 0 (it is the loc-RIB's neighbour key). The experiment
	// runner sets them per experiment through SetTerminals.
	RETerminal        bgp.RouterID
	CommodityTerminal bgp.RouterID

	cfg       WorldConfig
	hosts     map[uint32]*Host
	byPfx     map[netutil.Prefix][]*Host
	brownouts map[netutil.Prefix][]brownout
}

// SetTerminals makes re the R&E terminal and commodity the commodity
// terminal: a response whose forwarding ends at re arrives on the R&E
// VLAN, one ending at commodity on the commodity VLAN. 0 sets none.
func (w *World) SetTerminals(re, commodity bgp.RouterID) {
	w.RETerminal, w.CommodityTerminal = re, commodity
}

// brownout is a correlated burst-loss window: every probe toward the
// prefix inside [from, to) is dropped with probability loss. Unlike
// the i.i.d. ProbeLossProb, the window is shared by all hosts of the
// failure domain (typically all prefixes of one AS), so losses cluster
// in time the way real path brownouts do.
type brownout struct {
	from, to bgp.Time
	loss     float64
	salt     uint64
}

// BuildWorld populates hosts for every prefix of the ecosystem.
func BuildWorld(eco *topo.Ecosystem, cfg WorldConfig) *World {
	// Size the maps for the expected populations: the responsive share
	// of the prefixes, and per responsive prefix three, two or one host.
	pfxHint := int(float64(len(eco.Prefixes)) * cfg.FracPrefixResponsive)
	perPfx := 3*cfg.FracThreeHosts + 2*cfg.FracTwoHosts + max(0, 1-cfg.FracThreeHosts-cfg.FracTwoHosts)
	w := &World{
		Net:        eco.Net,
		MeasPrefix: eco.MeasPrefix,
		cfg:        cfg,
		hosts:      make(map[uint32]*Host, int(float64(pfxHint)*perPfx)),
		byPfx:      make(map[netutil.Prefix][]*Host, pfxHint),
	}
	rng := rand.New(rand.NewSource(cfg.Seed)) // #nosec deterministic simulation
	var hostSlab slab.Slab[Host]
	var listSlab slab.Slab[*Host]

	for _, pi := range eco.Prefixes {
		if rng.Float64() >= cfg.FracPrefixResponsive {
			continue
		}
		n := 1
		switch v := rng.Float64(); {
		case v < cfg.FracThreeHosts:
			n = 3
		case v < cfg.FracThreeHosts+cfg.FracTwoHosts:
			n = 2
		}
		proto := ICMP
		if rng.Float64() >= cfg.FracICMP {
			if rng.Intn(2) == 0 {
				proto = TCP
			} else {
				proto = UDP
			}
		}
		origin := eco.AS(pi.Origin)
		hs, list := hostSlab.Take(n), listSlab.Take(n)
		for k := range hs {
			addr := pi.Prefix.NthAddr(uint64(1 + k*11 + rng.Intn(7)))
			if _, dup := w.hosts[addr]; dup {
				addr = pi.Prefix.NthAddr(uint64(1 + k*29))
			}
			hostProto := proto
			if rng.Float64() < cfg.FracHostProtoFlip {
				// A host answering a different protocol than its
				// prefix's norm: these produce the paper's 2.1%
				// mixed-seed-origin prefixes.
				switch proto {
				case ICMP:
					hostProto = TCP
				default:
					hostProto = ICMP
				}
			}
			h := &hs[k]
			*h = Host{
				Addr:   addr,
				Prefix: pi.Prefix,
				Proto:  hostProto,
				Egress: w.egressFor(eco, origin, pi, k),
			}
			w.hosts[addr] = h
			list[k] = h
		}
		// Per-prefix host lists are sorted for determinism; the
		// generator's prefixes are distinct, so each list is built once.
		slices.SortFunc(list, func(a, b *Host) int { return cmp.Compare(a.Addr, b.Addr) })
		w.byPfx[pi.Prefix] = list
	}
	return w
}

// egressFor resolves which router a host's return traffic leaves from.
func (w *World) egressFor(eco *topo.Ecosystem, origin *topo.ASInfo, pi *topo.PrefixInfo, hostIdx int) bgp.RouterID {
	site := pi.Site
	if pi.MixedAltHost && hostIdx == 2 {
		// The third system of a mixed prefix sits on commodity-only
		// infrastructure (≈2:1 R&E:commodity, §4).
		site = topo.SiteAltCommodity
	}
	switch site {
	case topo.SiteAltCommodity:
		if len(origin.CommodityProviders) > 0 {
			if up := eco.AS(origin.CommodityProviders[0]); up != nil {
				return up.Router
			}
		}
	case topo.SiteAltRE:
		if len(origin.REProviders) > 0 {
			if up := eco.AS(origin.REProviders[0]); up != nil {
				return up.Router
			}
		}
	}
	return origin.Router
}

// Hosts returns the responsive hosts of a prefix (sorted by address).
func (w *World) Hosts(p netutil.Prefix) []*Host { return w.byPfx[p] }

// HostCount returns the total number of hosts in the world.
func (w *World) HostCount() int { return len(w.hosts) }

// ResponsivePrefixes returns all prefixes with at least one host, in
// canonical order.
func (w *World) ResponsivePrefixes() []netutil.Prefix {
	out := make([]netutil.Prefix, 0, len(w.byPfx))
	for p := range w.byPfx {
		out = append(out, p)
	}
	netutil.SortPrefixes(out)
	return out
}

// InjectDormancy gives each prefix a chance of a quiet window inside
// [start, end), modelling the per-experiment packet loss that makes
// prefixes incomparable in Table 2. Call once per experiment.
func (w *World) InjectDormancy(start, end bgp.Time, rngSeed int64) {
	rng := rand.New(rand.NewSource(rngSeed)) // #nosec deterministic simulation
	if end <= start {
		return
	}
	span := int64(end - start)
	for _, p := range w.ResponsivePrefixes() {
		if rng.Float64() >= w.cfg.FracDormantPrefix {
			continue
		}
		from := start + bgp.Time(rng.Int63n(span))
		dur := bgp.Time(1800 + rng.Int63n(2*3600))
		for _, h := range w.byPfx[p] {
			h.DormantFrom, h.DormantTo = from, from+dur
		}
	}
}

// AddBrownout installs a correlated burst-loss window over a set of
// prefixes (one failure domain, e.g. all prefixes of an AS). Probes
// toward those prefixes during [from, to) are dropped with probability
// loss, decided by a deterministic hash of (salt, dst, t) so outcomes
// do not depend on probe order or retry count.
func (w *World) AddBrownout(prefixes []netutil.Prefix, from, to bgp.Time, loss float64, salt uint64) {
	if to <= from || loss <= 0 {
		return
	}
	if w.brownouts == nil {
		w.brownouts = make(map[netutil.Prefix][]brownout)
	}
	for _, p := range prefixes {
		w.brownouts[p] = append(w.brownouts[p], brownout{from: from, to: to, loss: loss, salt: salt})
	}
}

// ClearBrownouts removes all brownout windows (between experiments).
func (w *World) ClearBrownouts() { w.brownouts = nil }

// brownedOut reports whether a probe to dst (inside prefix p) at time
// t is lost to an active brownout window.
func (w *World) brownedOut(p netutil.Prefix, dst uint32, t bgp.Time) bool {
	for _, b := range w.brownouts[p] {
		if t >= b.from && t < b.to && hash01(b.salt^uint64(dst)<<32^uint64(t)) < b.loss {
			return true
		}
	}
	return false
}

// hash01 maps a 64-bit key to [0, 1) via a splitmix64-style mix,
// giving order-independent deterministic Bernoulli draws.
func hash01(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// ClearDormancy removes all quiet windows (between experiments).
func (w *World) ClearDormancy() {
	for _, hs := range w.byPfx {
		for _, h := range hs {
			h.DormantFrom, h.DormantTo = 0, 0
		}
	}
}

// ProbeResult is the outcome of one probe.
type ProbeResult struct {
	// Responded reports whether any reply arrived.
	Responded bool
	// VLAN is the interface the reply arrived on.
	VLAN VLAN
	// Hops is the AS-level length of the return path (for synthetic
	// RTTs in the scamper-like output).
	Hops int
}

// ProbeRand sends one probe of the given protocol to host h at virtual
// time t, sourced from the measurement prefix, and reports the reply
// and its arrival VLAN. h is the host seed selection resolved the
// target to (Responder); nil, a host that answers another protocol, a
// dormant one and a probe lost to a brownout of h's prefix or to a
// random draw get no reply. The reply goes where forwarding from h's
// egress router toward the measurement prefix ends, which c, the
// round's catchment of w.MeasPrefix (Net.Catchment), records: the VLAN
// is the terminal's, and Hops is the walk's length.
//
// Loss is drawn before the lookup. Random loss is drawn from rng;
// callers that probe prefixes concurrently must point it at a stream
// scoped no wider than the unit they shard by — see LossStream.
func (w *World) ProbeRand(c *bgp.Catchment, h *Host, proto Proto, t bgp.Time, rng *rand.Rand) ProbeResult {
	if h == nil || h.Proto != proto || h.dormant(t) {
		return ProbeResult{}
	}
	if w.brownedOut(h.Prefix, h.Addr, t) {
		return ProbeResult{}
	}
	if w.cfg.ProbeLossProb > 0 && rng.Float64() < w.cfg.ProbeLossProb {
		return ProbeResult{}
	}
	term, hops, ok := c.Terminal(h.Egress)
	switch {
	case !ok:
		return ProbeResult{}
	case term == w.RETerminal:
		return ProbeResult{Responded: true, VLAN: VLANRE, Hops: hops}
	case term == w.CommodityTerminal:
		return ProbeResult{Responded: true, VLAN: VLANCommodity, Hops: hops}
	default:
		// The response was forwarded to an origin we are not
		// listening on (should not happen in a configured experiment).
		return ProbeResult{}
	}
}

// LossStream points rng at the deterministic probe-loss stream of one
// (round start, prefix) pair and returns it. The stream seed derives
// from the world's loss seed (cfg.Seed+1) via parallel.SubSeed with
// stream id
//
//	uint64(round)<<32 ^ uint64(prefix.Addr())<<8 ^ uint64(prefix.Bits())
//
// — one independent stream per prefix per round, the finest unit the
// prober shards by. Because the stream is scoped to the prefix rather
// than the shard, loss draws are identical for any shard size and any
// worker count. rng is reseeded in place (rand.Rand.Seed), so a shard
// takes one Rand from parallel.Rand and points it at each prefix's
// stream in turn, allocating nothing per prefix; the draws are those
// of a fresh parallel.Rand for the stream.
func (w *World) LossStream(rng *rand.Rand, round bgp.Time, p netutil.Prefix) *rand.Rand {
	stream := uint64(round)<<32 ^ uint64(p.Addr())<<8 ^ uint64(p.Bits())
	rng.Seed(parallel.SubSeed(w.cfg.Seed+1, stream))
	return rng
}

// Responder returns the host at dst if it answers probes of the given
// protocol at time t, ignoring routing, and nil otherwise: the
// predicate seed selection uses, and the host each selected target
// keeps for ProbeRand.
func (w *World) Responder(dst uint32, proto Proto, t bgp.Time) *Host {
	if h := w.hosts[dst]; h != nil && h.Proto == proto && !h.dormant(t) {
		return h
	}
	return nil
}
