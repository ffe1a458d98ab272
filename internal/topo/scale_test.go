package topo

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp"
)

// maxSnapshotAllocsPerRoute is the internet tier's snapshot allocation
// ceiling: the routes ÷ 20 that TestSnapshotAllocs holds a small arena
// network to. A snapshot that boxed each route would make more than one
// allocation per route.
const maxSnapshotAllocsPerRoute = 0.05

// BenchmarkInternetScaleRIB is the internet-scale smoke: it builds the
// ~80K-AS / ~1M-prefix ecosystem on the compact RIB layout, converges
// the default-route flood through the real engine, then feeds the full
// member prefix table through a vantage speaker into a collector — the
// RIB shape a RouteViews peer actually holds. It gates the memory
// model: the amortised bytes-per-route of the arena + path table +
// indices must stay at or under 64. It then snapshots the network once
// and gates the snapshot's allocations per route (see
// maxSnapshotAllocsPerRoute).
func BenchmarkInternetScaleRIB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := Build(InternetConfig())
		ases, prefixes := len(e.ASes), len(e.Prefixes)
		if ases < 80_000 {
			b.Fatalf("internet scale too small: %d ASes < 80000", ases)
		}
		if prefixes < 1_000_000 {
			b.Fatalf("internet scale too small: %d prefixes < 1000000", prefixes)
		}
		if !e.Net.CompactRIB() {
			b.Fatal("internet scale must run on the compact RIB layout")
		}
		e.Net.RunToQuiescence()

		// Full-table vantage: a feed speaker announces every member
		// prefix to RouteViews with the real origin chain carried as
		// poison, so the collector's adj-RIB-in holds one realistic
		// multi-hop path per origin (the interning workload: ~13 routes
		// share each origin's path).
		const feedID = bgp.RouterID(9_000_000)
		e.Net.AddSpeaker(feedID, asn.AS(64999), "vantage-feed")
		e.Net.Connect(feedID, e.Collectors[0],
			bgp.PeerConfig{
				ClassifyAs: bgp.ClassPeer,
				ExportAllow: bgp.NewClassSet(bgp.ClassOwn, bgp.ClassCustomer,
					bgp.ClassPeer, bgp.ClassProvider, bgp.ClassREPeer),
			},
			bgp.PeerConfig{ClassifyAs: bgp.ClassPeer, ExportAllow: bgp.NewClassSet()},
		)
		chain := make([]asn.AS, 3)
		for _, pi := range e.Prefixes {
			info := e.AS(pi.Origin)
			up := pi.Origin
			if len(info.REProviders) > 0 {
				up = info.REProviders[0]
			} else if len(info.CommodityProviders) > 0 {
				up = info.CommodityProviders[0]
			}
			chain[0], chain[1], chain[2] = e.Lumen.AS, up, pi.Origin
			e.Net.OriginateWith(feedID, pi.Prefix, bgp.OriginateOpts{Poison: chain})
		}
		e.Net.RunToQuiescence()

		rs := e.Net.RIBStats()
		bpr := rs.BytesPerRoute()
		if bpr > 64 {
			b.Fatalf("bytes/route = %.1f exceeds the 64-byte budget (%+v)", bpr, rs)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heapMB := float64(ms.HeapAlloc) / (1 << 20)

		// What a checkpoint of this network costs: one snapshot into
		// io.Discard, its allocation measured. The encoder numbers arena
		// records by position and writes one buffer, so its allocations
		// grow with speakers and path-table growth steps, not with routes.
		before := ms
		if err := e.Net.Snapshot(io.Discard); err != nil {
			b.Fatalf("snapshot: %v", err)
		}
		runtime.ReadMemStats(&ms)
		snapMB := float64(ms.TotalAlloc-before.TotalAlloc) / (1 << 20)
		snapAllocs := float64(ms.Mallocs-before.Mallocs) / float64(rs.Routes)
		if snapAllocs > maxSnapshotAllocsPerRoute {
			b.Fatalf("snapshot made %.4f allocations per route, over the %.2f ceiling (%.0f MB allocated)", snapAllocs, maxSnapshotAllocsPerRoute, snapMB)
		}

		b.ReportMetric(float64(ases), "ases")
		b.ReportMetric(float64(prefixes), "prefixes")
		b.ReportMetric(float64(rs.Routes), "routes")
		b.ReportMetric(float64(rs.DistinctPaths), "paths")
		b.ReportMetric(bpr, "bytes/route")
		b.ReportMetric(heapMB, "heap-MB")
		b.ReportMetric(snapMB, "snapshot-MB")
		b.ReportMetric(snapAllocs, "snapshot-allocs/route")
		runtime.KeepAlive(e)
	}
}
