package bgp

import (
	"math/rand"
	"runtime"
	"testing"

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

// TestDeliveryAllocs gates steady-state allocations per delivered
// update on a converged compact network driven through prepend churn —
// the hot path of every workload. The ceiling is the figure this gate
// was last committed at (13.57, one churn round) plus 10%; the steady
// state over many rounds reads lower. benchmark/'s event_storm reports
// the map store's figure as bgp.allocs_per_update.
func TestDeliveryAllocs(t *testing.T) {
	const (
		rounds  = 120
		ceiling = 14.9
	)
	rng := rand.New(rand.NewSource(1789)) // #nosec test randomness
	n := NewNetwork()
	n.SetCompactRIB(true)
	growGaoRexford(n, rng, 160)
	prefixes := make([]netutil.Prefix, 40)
	origins := make([]RouterID, len(prefixes))
	for i := range prefixes {
		prefixes[i] = netutil.PrefixFrom(uint32(0xC6336400+i*256), 24)
		origins[i] = RouterID(1 + rng.Intn(160))
		n.Originate(origins[i], prefixes[i])
	}
	n.RunToQuiescence()

	var before, after runtime.MemStats
	msgs0 := n.Churn.TotalMessages
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		k := i % len(prefixes)
		nb := n.speakers[origins[k]].peerOrder[0]
		n.SetPrefixPrepend(origins[k], nb, prefixes[k], 1+i%3)
		n.RunToQuiescence()
	}
	runtime.ReadMemStats(&after)
	delivered := n.Churn.TotalMessages - msgs0
	if delivered == 0 {
		t.Fatal("prepend churn delivered no updates")
	}
	got := float64(after.Mallocs-before.Mallocs) / float64(delivered)
	t.Logf("allocs per delivered update = %.2f over %d deliveries", got, delivered)
	if got > ceiling {
		t.Fatalf("allocs per delivered update = %.2f over %d deliveries, want <= %.1f", got, delivered, ceiling)
	}
}
