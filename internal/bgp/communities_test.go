package bgp

import (
	"testing"
	"testing/quick"

	"repro/internal/asn"
	"repro/internal/netutil"
)

func TestCommunityString(t *testing.T) {
	if got := MakeCommunity(11537, 100).String(); got != "11537:100" {
		t.Errorf("String = %q", got)
	}
	if NoExport.String() != "no-export" || NoAdvertise.String() != "no-advertise" {
		t.Error("well-known names wrong")
	}
}

func TestCommunitySetOps(t *testing.T) {
	s := NewCommunitySet(MakeCommunity(1, 2), MakeCommunity(1, 2), NoExport)
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2 (dedup)", s.Len())
	}
	if !s.Has(NoExport) || !s.Has(MakeCommunity(1, 2)) || s.Has(NoAdvertise) {
		t.Error("membership wrong")
	}
	s2 := s.With(NoAdvertise)
	if !s2.Has(NoAdvertise) || s.Has(NoAdvertise) {
		t.Error("With must not mutate the receiver")
	}
	s3 := s2.Without(NoExport)
	if s3.Has(NoExport) || !s2.Has(NoExport) {
		t.Error("Without must not mutate the receiver")
	}
	if s3.Without(NoExport).Len() != s3.Len() {
		t.Error("Without of an absent member should not shrink the set")
	}
	var empty CommunitySet
	if empty.Len() != 0 || empty.Has(NoExport) || empty.String() != "{}" {
		t.Error("zero value should be the empty set")
	}
	if got := NewCommunitySet(MakeCommunity(2, 1), MakeCommunity(1, 1)).String(); got != "{1:1 2:1}" {
		t.Errorf("String = %q", got)
	}
}

func TestCommunitySetSortedInvariant(t *testing.T) {
	f := func(raw []uint32) bool {
		cs := make([]Community, len(raw))
		for i, v := range raw {
			cs[i] = Community(v)
		}
		s := NewCommunitySet(cs...)
		vals := s.Values()
		for i := 1; i < len(vals); i++ {
			if vals[i] <= vals[i-1] {
				return false
			}
		}
		for _, c := range cs {
			if !s.Has(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// chainNet builds origin(1) -> middle(2) -> edge(3), all customer
// relationships upward.
func chainNet() *Network { return chainNetOn(false) }

// chainNetOn is chainNet on the map (false) or arena (true) RIB store.
func chainNetOn(compact bool) *Network {
	net := NewNetwork()
	net.SetCompactRIB(compact)
	net.AddSpeaker(1, 100, "origin")
	net.AddSpeaker(2, 200, "middle")
	net.AddSpeaker(3, 300, "edge")
	cust := bgp2custCfg()
	prov := bgp2provCfg()
	net.Connect(2, 1, cust, prov) // 1 is 2's customer
	net.Connect(3, 2, cust, prov) // 2 is 3's customer
	return net
}

func bgp2custCfg() PeerConfig {
	return PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer)}
}

func bgp2provCfg() PeerConfig {
	return PeerConfig{ClassifyAs: ClassProvider, ImportLocalPref: LocalPrefProvider, ExportAllow: GaoRexfordExport(ClassProvider)}
}

func TestCommunitiesPropagate(t *testing.T) {
	net := chainNet()
	p := netutil.MustParsePrefix("203.0.113.0/24")
	tag := MakeCommunity(100, 42)
	net.OriginateWith(1, p, OriginateOpts{Communities: NewCommunitySet(tag)})
	net.RunToQuiescence()
	r := net.Speaker(3).Best(p)
	if r == nil || !r.Communities.Has(tag) {
		t.Fatalf("community did not propagate: %v", r)
	}
}

func TestNoExportStopsAtFirstAS(t *testing.T) {
	net := chainNet()
	p := netutil.MustParsePrefix("203.0.113.0/24")
	net.OriginateWith(1, p, OriginateOpts{Communities: NewCommunitySet(NoExport)})
	net.RunToQuiescence()
	if net.Speaker(2).Best(p) == nil {
		t.Fatal("direct neighbor should learn a NoExport route")
	}
	if r := net.Speaker(3).Best(p); r != nil {
		t.Errorf("NoExport route re-exported beyond the first AS: %v", r)
	}
}

func TestExportAddCommunities(t *testing.T) {
	net := chainNet()
	p := netutil.MustParsePrefix("203.0.113.0/24")
	tag := MakeCommunity(200, 7)
	// middle tags announcements toward edge.
	net.Speaker(2).Peer(3).ExportAddCommunities = NewCommunitySet(tag)
	net.Originate(1, p)
	net.RunToQuiescence()
	r := net.Speaker(3).Best(p)
	if r == nil || !r.Communities.Has(tag) {
		t.Fatalf("edge missing session-added community: %v", r)
	}
	// origin's own copy is untouched.
	if net.Speaker(2).Best(p).Communities.Len() != 0 {
		t.Error("middle's route should carry no communities")
	}
}

func TestPoisonedOrigination(t *testing.T) {
	// origin(1) announces poisoned against AS 300 (edge): middle keeps
	// the route, edge discards it by loop detection.
	net := chainNet()
	p := netutil.MustParsePrefix("203.0.113.0/24")
	net.OriginateWith(1, p, OriginateOpts{Poison: []asn.AS{300}})
	net.RunToQuiescence()
	mid := net.Speaker(2).Best(p)
	if mid == nil {
		t.Fatal("middle lost the poisoned route")
	}
	want := asn.MustParsePath("100 300 100")
	if !mid.Path.Equal(want) {
		t.Errorf("poisoned path = %v, want %v", mid.Path, want)
	}
	if mid.Path.Origin() != 100 {
		t.Error("poisoning must preserve the origin")
	}
	if r := net.Speaker(3).Best(p); r != nil {
		t.Errorf("poisoned AS still learned the route: %v", r)
	}
	// Re-announcing unpoisoned restores reachability.
	net.Originate(1, p)
	net.RunToQuiescence()
	if net.Speaker(3).Best(p) == nil {
		t.Error("edge should recover after the poison is lifted")
	}
}

func TestMRAIBatchesUpdates(t *testing.T) {
	// Rapid prepend changes at the origin within one MRAI must reach
	// the edge as a single final update.
	net := chainNet()
	net.Speaker(2).Peer(3).MRAI = 30
	p := netutil.MustParsePrefix("203.0.113.0/24")
	net.Originate(1, p)
	net.RunToQuiescence()
	before := net.Churn.TotalMessages

	// Three flaps in quick succession (2s apart).
	for i := 1; i <= 3; i++ {
		net.SetPrefixPrepend(1, 2, p, i)
		net.Run(net.Now() + 2)
	}
	net.RunToQuiescence()
	delta := net.Churn.TotalMessages - before
	// Without MRAI: 3 updates to middle + 3 to edge = 6. With MRAI on
	// the middle->edge session, the edge sees fewer than 3.
	if delta >= 6 {
		t.Errorf("MRAI did not batch: %d messages", delta)
	}
	// Final state must still be correct.
	r := net.Speaker(3).Best(p)
	if r == nil || r.Path.PrependCount() != 3 {
		t.Errorf("edge final route wrong: %v", r)
	}
}

func TestMRAIFinalStateMatchesNoMRAI(t *testing.T) {
	// Property: MRAI changes timing, never the converged outcome.
	build := func(mrai Time) *Network {
		net := chainNet()
		net.Speaker(2).Peer(3).MRAI = mrai
		p := netutil.MustParsePrefix("203.0.113.0/24")
		net.Originate(1, p)
		net.RunToQuiescence()
		for i := 1; i <= 4; i++ {
			net.SetPrefixPrepend(1, 2, p, i%3)
			net.Run(net.Now() + 1)
		}
		net.RunToQuiescence()
		return net
	}
	p := netutil.MustParsePrefix("203.0.113.0/24")
	with := build(45).Speaker(3).Best(p)
	without := build(0).Speaker(3).Best(p)
	if with == nil || without == nil || !with.Path.Equal(without.Path) {
		t.Errorf("MRAI changed convergence: %v vs %v", with, without)
	}
}
