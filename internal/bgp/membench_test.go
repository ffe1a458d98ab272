package bgp

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// TestRIBBytesPerRoute gates the compact layout's memory model on a
// vantage-point shape: one speaker importing a 2,000-prefix table from
// three feeds, with ~10 routes sharing each origin AS path (the
// interning workload a collector peer sees). The modelled figure is a
// deterministic function of the shape and does not move with table
// size — it reads 62.52 at 2,000, 20,000 and 200,000 prefixes — so the
// small table asserts what the large one did. The ceiling is the
// internet tier's budget (BenchmarkInternetScaleRIB in internal/topo);
// benchmark/'s rib_scale reports the same model on a generated world
// as bgp.modelled_bytes_per_route, beside the measured heap figure.
func TestRIBBytesPerRoute(t *testing.T) {
	const (
		nPrefixes = 2_000
		nFeeds    = 3
		budget    = 64.0
	)
	n := NewNetwork()
	n.SetCompactRIB(true)
	const vantage = RouterID(1)
	n.AddSpeaker(vantage, asn.AS(65000), "vantage")
	feedExport := PeerConfig{
		ClassifyAs:  ClassPeer,
		ExportAllow: NewClassSet(ClassOwn, ClassCustomer),
	}
	vantageImport := PeerConfig{
		ClassifyAs:      ClassPeer,
		ImportLocalPref: LocalPrefPeer,
		ExportAllow:     NewClassSet(),
	}
	for f := 0; f < nFeeds; f++ {
		id := RouterID(2 + f)
		n.AddSpeaker(id, asn.AS(65001+f), "")
		n.Connect(id, vantage, feedExport, vantageImport)
	}
	// Dense /24 table; every 10th prefix starts a new origin, so
	// each origin's path is shared by ~10 routes per feed.
	chain := make([]asn.AS, 3)
	for f := 0; f < nFeeds; f++ {
		id := RouterID(2 + f)
		for p := 0; p < nPrefixes; p++ {
			origin := p / 10
			chain[0] = asn.AS(70_000 + f)
			chain[1] = asn.AS(80_000 + origin%500)
			chain[2] = asn.AS(100_000 + origin)
			n.OriginateWith(id, netutil.PrefixFrom(uint32(0x0A000000+p*256), 24),
				OriginateOpts{Poison: chain})
		}
	}
	n.RunToQuiescence()

	rs := n.RIBStats()
	if rs.Routes == 0 {
		t.Fatal("vantage network holds no routes")
	}
	bpr := rs.BytesPerRoute()
	t.Logf("modelled bytes/route = %.2f over %d routes, %d distinct paths", bpr, rs.Routes, rs.DistinctPaths)
	if bpr > budget {
		t.Fatalf("modelled bytes/route = %.2f exceeds the %.0f-byte budget (%+v)", bpr, budget, rs)
	}
}

// deliveryChurnNet is the delivery-path workload TestDeliveryAllocs
// and BenchmarkDeliveryChurn share: a converged 160-AS Gao-Rexford
// network with 40 originated prefixes on the given layout, and churn,
// whose round i changes the prepend one origin applies toward its
// first neighbor and runs the network to quiescence.
func deliveryChurnNet(compact bool) (n *Network, churn func(i int)) {
	rng := rand.New(rand.NewSource(1789)) // #nosec test randomness
	n = NewNetwork()
	n.SetCompactRIB(compact)
	growGaoRexford(n, rng, 160)
	prefixes := make([]netutil.Prefix, 40)
	origins := make([]RouterID, len(prefixes))
	for i := range prefixes {
		prefixes[i] = netutil.PrefixFrom(uint32(0xC6336400+i*256), 24)
		origins[i] = RouterID(1 + rng.Intn(160))
		n.Originate(origins[i], prefixes[i])
	}
	n.RunToQuiescence()
	return n, func(i int) {
		k := i % len(prefixes)
		nb := n.speakers[origins[k]].sessions[0].nbID
		n.SetPrefixPrepend(origins[k], nb, prefixes[k], 1+i%3)
		n.RunToQuiescence()
	}
}

// TestDeliveryAllocs gates steady-state allocations per delivered
// update on a converged network driven through prepend churn — the hot
// path of every workload — on both stores ("map" names the default,
// now the row table, after the layout it replaced). The default is what
// benchmark/'s event_storm and every survey run (it reports the figure
// as bgp.allocs_per_update); the arena pays its materialisations on
// top. Each ceiling is the committed reading plus about 10 %, so a
// popped event that escapes to the heap, or a path prepended afresh
// for every session of a fan-out, fails it.
func TestDeliveryAllocs(t *testing.T) {
	const rounds = 120
	for _, tc := range []struct {
		name    string
		compact bool
		ceiling float64
	}{
		{"map", false, 2.7},
		{"arena", true, 6.4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, churn := deliveryChurnNet(tc.compact)
			var before, after runtime.MemStats
			msgs0 := n.Churn.TotalMessages
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				churn(i)
			}
			runtime.ReadMemStats(&after)
			delivered := n.Churn.TotalMessages - msgs0
			if delivered == 0 {
				t.Fatal("prepend churn delivered no updates")
			}
			got := float64(after.Mallocs-before.Mallocs) / float64(delivered)
			t.Logf("allocs per delivered update = %.2f over %d deliveries", got, delivered)
			if got > tc.ceiling {
				t.Fatalf("allocs per delivered update = %.2f over %d deliveries, want <= %.1f", got, delivered, tc.ceiling)
			}
		})
	}
}

// TestUnchangedExportAllocs: draining a dirty pair whose recomputed
// announcement equals the adj-RIB-out puts nothing on the heap — the
// announcement is compared as a value, and its path comes from the
// fan-out memo.
func TestUnchangedExportAllocs(t *testing.T) {
	n := chainNet()
	p := netutil.MustParsePrefix("203.0.113.0/24")
	n.Originate(1, p)
	n.RunToQuiescence()
	s := n.Speaker(2)
	pc := s.Peer(3)
	if s.AdjOut(p, 3) == nil {
		t.Fatal("middle speaker announces nothing to the edge")
	}
	before := n.Stats().SuppressedProps
	if got := testing.AllocsPerRun(100, func() { n.requestExport(s, p, pc) }); got != 0 {
		t.Errorf("draining an unchanged dirty pair allocates %.1f times, want 0", got)
	}
	if n.Stats().SuppressedProps == before || n.PendingEvents() != 0 {
		t.Error("the drained pair was not suppressed at the source")
	}
}

// TestFanOutSharesPath: every session of one fan-out with the same
// prepend count carries one path backing array, but each session's
// adj-RIB-out holds its own Route — the snapshot numbers routes per
// pointer, so sharing a Route would change its route table.
func TestFanOutSharesPath(t *testing.T) {
	n := NewNetwork()
	n.AddSpeaker(1, 65001, "origin")
	for id := RouterID(2); id <= 5; id++ {
		n.AddSpeaker(id, asn.AS(65000+id), "")
		n.Connect(id, 1, bgp2custCfg(), bgp2provCfg())
	}
	p := netutil.MustParsePrefix("203.0.113.0/24")
	n.SetPrefixPrepend(1, 5, p, 2)
	n.Originate(1, p)
	n.RunToQuiescence()

	s := n.Speaker(1)
	r2, r3, r4, r5 := s.AdjOut(p, 2), s.AdjOut(p, 3), s.AdjOut(p, 4), s.AdjOut(p, 5)
	if r2 == nil || r3 == nil || r4 == nil || r5 == nil {
		t.Fatal("origin did not announce to every provider")
	}
	if r2 == r3 || r3 == r4 || r2 == r4 {
		t.Error("two sessions share one adj-RIB-out Route")
	}
	if unsafe.SliceData(r2.Path) != unsafe.SliceData(r3.Path) || unsafe.SliceData(r3.Path) != unsafe.SliceData(r4.Path) {
		t.Error("sessions with equal prepend count got separately built paths")
	}
	if unsafe.SliceData(r5.Path) == unsafe.SliceData(r2.Path) || r5.Path.Len() != 3 {
		t.Errorf("the prepended session shares the unprepended path: %v", r5.Path)
	}
	if in := n.Speaker(3).AdjIn(p, 1); in == nil || unsafe.SliceData(in.Path) != unsafe.SliceData(r3.Path) {
		t.Error("the receiver does not share the announced path")
	}
}
