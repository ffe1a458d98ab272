package bgp

import (
	"testing"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// Cross-feature interaction tests: MRAI with RFD, communities through
// chains, and engine idempotence.

func TestEngineIdempotentQuiescence(t *testing.T) {
	net := diamondNet()
	net.Originate(1, diamondPrefix)
	net.RunToQuiescence()
	n := net.EventsProcessed()
	net.RunToQuiescence()
	net.RunToQuiescence()
	if net.EventsProcessed() != n {
		t.Error("quiescent network generated events")
	}
}

func TestMRAIWithRFD(t *testing.T) {
	// MRAI batching upstream reduces the flap count a damped
	// downstream session sees: with batching, rapid origin flaps reach
	// the damped session as fewer updates and may never suppress.
	build := func(mrai Time) (*Network, netutil.Prefix) {
		net := chainNet()
		net.Speaker(2).Peer(3).MRAI = mrai
		net.Speaker(3).Peer(2).RFD = DefaultRFD()
		p := netutil.MustParsePrefix("203.0.113.0/24")
		net.Originate(1, p)
		net.RunToQuiescence()
		// Rapid attribute flaps at the origin.
		for i := 1; i <= 5; i++ {
			net.SetPrefixPrepend(1, 2, p, i%2+1)
			net.Run(net.Now() + 3)
		}
		return net, p
	}

	noBatch, p := build(0)
	batched, _ := build(60)
	// Without batching, the edge's session should have been suppressed
	// at some point (five flaps in ~15s); with a 60s MRAI the edge
	// sees at most one update in that window.
	nbEdge := noBatch.Speaker(3)
	bEdge := batched.Speaker(3)
	_ = nbEdge
	// After full drain both converge to the same final route.
	noBatch.RunToQuiescence()
	batched.RunToQuiescence()
	rn, rb := noBatch.Speaker(3).Best(p), bEdge.Best(p)
	if rn == nil || rb == nil || !rn.Path.Equal(rb.Path) {
		t.Errorf("final states differ: %v vs %v", rn, rb)
	}
}

func TestCommunityThroughChainWithPrepends(t *testing.T) {
	net := chainNet()
	p := netutil.MustParsePrefix("203.0.113.0/24")
	tag := MakeCommunity(100, 1)
	net.OriginateWith(1, p, OriginateOpts{Communities: NewCommunitySet(tag)})
	net.RunToQuiescence()
	net.SetPrefixPrepend(1, 2, p, 2)
	net.RunToQuiescence()
	r := net.Speaker(3).Best(p)
	if r == nil || !r.Communities.Has(tag) {
		t.Fatalf("community lost across prepend change: %v", r)
	}
	if r.Path.PrependCount() != 2 {
		t.Errorf("prepends = %d, want 2", r.Path.PrependCount())
	}
}

func TestSessionDownDuringMRAIWindow(t *testing.T) {
	// A deferred (MRAI-held) export must not fire onto a session that
	// went down before the flush, and the flush timer must still end
	// the batch: the first change after the restore, inside the new
	// window, reaches the edge.
	net := chainNet()
	net.Speaker(2).Peer(3).MRAI = 50
	p := netutil.MustParsePrefix("203.0.113.0/24")
	net.Originate(1, p)
	net.RunToQuiescence()
	// Change within the MRAI window, then cut the session.
	net.SetPrefixPrepend(1, 2, p, 1)
	net.Run(net.Now() + 2)
	net.SetSessionDown(2, 3)
	net.RunToQuiescence()
	if net.Speaker(3).AdjIn(p, 2) != nil {
		t.Error("down session received the deferred update")
	}
	// Restore: state resynchronizes.
	net.SetSessionUp(2, 3)
	net.RunToQuiescence()
	r := net.Speaker(3).Best(p)
	if r == nil || r.Path.PrependCount() != 1 {
		t.Errorf("post-restore route wrong: %v", r)
	}
	net.SetPrefixPrepend(1, 2, p, 3)
	net.RunToQuiescence()
	want := asn.Path{200, 100, 100, 100, 100}
	if r := net.Speaker(3).Best(p); r == nil || !r.Path.Equal(want) {
		t.Errorf("change after the restore: edge holds %v, want %v", r, want)
	}
	requireExportsSettled(t, net)
}

func TestConnectInitialTableExchange(t *testing.T) {
	// RFC 4271 §9.2: a new session carries existing state both ways.
	net := NewNetwork()
	net.AddSpeaker(1, 100, "a")
	net.AddSpeaker(2, 200, "b")
	pa := netutil.MustParsePrefix("10.1.0.0/16")
	pb := netutil.MustParsePrefix("10.2.0.0/16")
	net.Originate(1, pa)
	net.Originate(2, pb)
	net.RunToQuiescence()
	// Connect after both originations.
	peerCfg := PeerConfig{ClassifyAs: ClassPeer, ImportLocalPref: LocalPrefPeer, ExportAllow: GaoRexfordExport(ClassPeer)}
	net.Connect(1, 2, peerCfg, peerCfg)
	net.RunToQuiescence()
	if net.Speaker(2).Best(pa) == nil {
		t.Error("b did not learn a's pre-existing route")
	}
	if net.Speaker(1).Best(pb) == nil {
		t.Error("a did not learn b's pre-existing route")
	}
}
