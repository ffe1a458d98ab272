package simnet

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/netutil"
	"repro/internal/parallel"
	"repro/internal/topo"
)

func buildWorld(t *testing.T) (*topo.Ecosystem, *World) {
	t.Helper()
	eco := topo.Build(topo.SmallConfig())
	w := BuildWorld(eco, DefaultWorldConfig())
	return eco, w
}

// probeHost probes h at time t through the network's catchment as it
// stands, drawing loss from its prefix's stream for that time as the
// prober does.
func probeHost(w *World, h *Host, t bgp.Time) ProbeResult {
	return w.ProbeRand(w.Net.Catchment(w.MeasPrefix), h, h.Proto, t, w.LossStream(parallel.Rand(0, 0), t, h.Prefix))
}

func TestBuildWorldCoverage(t *testing.T) {
	eco, w := buildWorld(t)
	resp := len(w.ResponsivePrefixes())
	frac := float64(resp) / float64(len(eco.Prefixes))
	if frac < 0.55 || frac > 0.80 {
		t.Errorf("responsive prefix fraction = %.2f, want ~0.68 (§3.2)", frac)
	}
	three := 0
	for _, p := range w.ResponsivePrefixes() {
		hosts := w.Hosts(p)
		if len(hosts) == 0 || len(hosts) > 3 {
			t.Fatalf("prefix %s has %d hosts", p, len(hosts))
		}
		if len(hosts) == 3 {
			three++
		}
		for _, h := range hosts {
			if !p.Contains(h.Addr) {
				t.Errorf("host %d outside its prefix %s", h.Addr, p)
			}
		}
	}
	if f := float64(three) / float64(resp); f < 0.65 {
		t.Errorf("three-host fraction = %.2f, want ~0.80", f)
	}
}

func TestWorldDeterministic(t *testing.T) {
	eco := topo.Build(topo.SmallConfig())
	a := BuildWorld(eco, DefaultWorldConfig())
	b := BuildWorld(eco, DefaultWorldConfig())
	if a.HostCount() != b.HostCount() {
		t.Fatalf("host counts differ: %d vs %d", a.HostCount(), b.HostCount())
	}
	pa, pb := a.ResponsivePrefixes(), b.ResponsivePrefixes()
	if len(pa) != len(pb) {
		t.Fatalf("responsive prefix counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("prefix %d differs", i)
		}
	}
	// Every prefix's host list, in order: address, prefix, protocol,
	// egress router and dormancy window.
	for _, pi := range eco.Prefixes {
		ha, hb := a.Hosts(pi.Prefix), b.Hosts(pi.Prefix)
		if len(ha) != len(hb) {
			t.Fatalf("%s: %d hosts vs %d", pi.Prefix, len(ha), len(hb))
		}
		for i := range ha {
			if *ha[i] != *hb[i] {
				t.Fatalf("%s host %d: %+v vs %+v", pi.Prefix, i, *ha[i], *hb[i])
			}
			if i > 0 && ha[i-1].Addr >= ha[i].Addr {
				t.Fatalf("%s: hosts not in ascending address order", pi.Prefix)
			}
		}
	}
}

func TestProbeVLANFollowsPolicy(t *testing.T) {
	eco, w := buildWorld(t)
	// June-style announcement.
	eco.Net.Originate(eco.MeasCommodity.Router, eco.MeasPrefix)
	eco.Net.Originate(eco.Internet2.Router, eco.MeasPrefix)
	eco.Net.RunToQuiescence()
	w.SetTerminals(eco.Internet2.Router, eco.MeasCommodity.Router)

	checked := 0
	for _, p := range w.ResponsivePrefixes() {
		pi := eco.PrefixInfoFor(p)
		info := eco.AS(pi.Origin)
		if info.Class != topo.ClassMember || pi.Site != topo.SitePrimary || pi.MixedAltHost {
			continue
		}
		h := w.Hosts(p)[0]
		res := probeHost(w, h, 0)
		if !res.Responded {
			continue // rare random probe loss
		}
		switch info.Policy {
		case topo.PolicyPreferRE, topo.PolicyDefaultOnly:
			if res.VLAN != VLANRE {
				t.Errorf("prefer-R&E member %v responded on %v", info.AS, res.VLAN)
			}
		case topo.PolicyPreferCommodity:
			if len(info.CommodityProviders) > 0 && res.VLAN != VLANCommodity {
				t.Errorf("prefer-commodity member %v responded on %v", info.AS, res.VLAN)
			}
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d hosts checked", checked)
	}
}

func TestProbeWrongProtoNoAnswer(t *testing.T) {
	eco, w := buildWorld(t)
	eco.Net.Originate(eco.MeasCommodity.Router, eco.MeasPrefix)
	eco.Net.RunToQuiescence()
	w.SetTerminals(0, eco.MeasCommodity.Router) // no R&E terminal
	var h *Host
	for _, p := range w.ResponsivePrefixes() {
		if hs := w.Hosts(p); hs[0].Proto == ICMP {
			h = hs[0]
			break
		}
	}
	if h == nil {
		t.Fatal("no ICMP host")
	}
	view := w.Net.Catchment(w.MeasPrefix)
	rng := w.LossStream(parallel.Rand(0, 0), 0, h.Prefix)
	if res := w.ProbeRand(view, h, TCP, 0, rng); res.Responded {
		t.Error("ICMP-only host answered TCP")
	}
	if w.Responder(h.Addr, TCP, 0) != nil {
		t.Error("ICMP-only host selected for TCP")
	}
	if w.Responder(h.Addr+100000, ICMP, 0) != nil {
		t.Error("non-host address selected")
	}
	if res := w.ProbeRand(view, nil, ICMP, 0, rng); res.Responded {
		t.Error("a target without a host answered")
	}
}

func TestDormancy(t *testing.T) {
	eco, w := buildWorld(t)
	eco.Net.Originate(eco.MeasCommodity.Router, eco.MeasPrefix)
	eco.Net.RunToQuiescence()
	w.SetTerminals(0, eco.MeasCommodity.Router) // no R&E terminal

	w.InjectDormancy(0, 10*3600, 42)
	dormantSeen := false
	for _, p := range w.ResponsivePrefixes() {
		h := w.Hosts(p)[0]
		if h.DormantTo > h.DormantFrom {
			dormantSeen = true
			if w.Responder(h.Addr, h.Proto, (h.DormantFrom+h.DormantTo)/2) != nil {
				t.Error("dormant host still responsive inside window")
			}
			if w.Responder(h.Addr, h.Proto, h.DormantTo+1) != h {
				t.Error("host should recover after its window")
			}
		}
	}
	if !dormantSeen {
		t.Skip("no prefix went dormant with this seed")
	}
	w.ClearDormancy()
	for _, p := range w.ResponsivePrefixes() {
		h := w.Hosts(p)[0]
		if h.DormantTo != 0 || h.DormantFrom != 0 {
			t.Fatal("ClearDormancy left state behind")
		}
	}
}

func TestMixedPrefixHostEgress(t *testing.T) {
	eco, w := buildWorld(t)
	for _, p := range w.ResponsivePrefixes() {
		pi := eco.PrefixInfoFor(p)
		if !pi.MixedAltHost {
			continue
		}
		hosts := w.Hosts(p)
		if len(hosts) < 3 {
			continue
		}
		origin := eco.AS(pi.Origin)
		if hosts[2].Egress == origin.Router {
			t.Errorf("mixed prefix %s third host should egress off-origin", p)
		}
		if hosts[0].Egress != origin.Router {
			t.Errorf("mixed prefix %s first host should egress at origin", p)
		}
		return
	}
	t.Skip("no responsive mixed prefix with 3 hosts at this seed")
}

func TestStrings(t *testing.T) {
	if ICMP.String() != "icmp" || TCP.String() != "tcp" || UDP.String() != "udp" {
		t.Error("proto strings wrong")
	}
	if VLANRE.String() != "re" || VLANCommodity.String() != "commodity" || VLANNone.String() != "none" {
		t.Error("vlan strings wrong")
	}
	if VLANRE.Interface() == "" || VLANCommodity.Interface() == "" || VLANNone.Interface() != "" {
		t.Error("vlan interfaces wrong")
	}
}

func TestBrownouts(t *testing.T) {
	eco, w := buildWorld(t)
	eco.Net.Originate(eco.MeasCommodity.Router, eco.MeasPrefix)
	eco.Net.RunToQuiescence()
	w.SetTerminals(0, eco.MeasCommodity.Router) // no R&E terminal

	prefixes := w.ResponsivePrefixes()
	if len(prefixes) == 0 {
		t.Fatal("no responsive prefixes")
	}
	target := prefixes[0]
	h := w.Hosts(target)[0]
	if !probeHost(w, h, 100).Responded {
		t.Fatal("host not responsive before brownout")
	}

	// Total loss inside [1000, 2000): every probe in the window drops,
	// probes outside it are untouched.
	w.AddBrownout([]netutil.Prefix{target}, 1000, 2000, 1.0, 7)
	if probeHost(w, h, 1500).Responded {
		t.Error("probe answered inside a loss=1 brownout window")
	}
	if !probeHost(w, h, 999).Responded {
		t.Error("probe dropped before the window")
	}
	if !probeHost(w, h, 2000).Responded {
		t.Error("probe dropped after the window (end is exclusive)")
	}
	// Other prefixes are unaffected: find another prefix that answers
	// outside the window (not every prefix has a usable return path
	// with only the commodity terminal armed) and check it inside.
	for _, op := range prefixes[1:] {
		o := w.Hosts(op)[0]
		if !probeHost(w, o, 100).Responded {
			continue
		}
		if !probeHost(w, o, 1500).Responded {
			t.Error("brownout leaked to an uninvolved prefix")
		}
		break
	}
	// The per-probe draw is a pure hash of (salt, dst, time): the same
	// probe repeated gives the same outcome, so retries at different
	// times are independent but replays are stable.
	a := probeHost(w, h, 1500).Responded
	b := probeHost(w, h, 1500).Responded
	if a != b {
		t.Error("brownout outcome not stable across replays")
	}

	w.ClearBrownouts()
	if !probeHost(w, h, 1500).Responded {
		t.Error("ClearBrownouts did not restore reachability")
	}
}
