package bgp

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// BenchmarkCompare measures the decision process's pairwise step.
func BenchmarkCompare(b *testing.B) {
	rng := rand.New(rand.NewSource(1)) // #nosec benchmark randomness
	routes := make([]*Route, 64)
	for i := range routes {
		routes[i] = randomRoute(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compare(routes[i%64], routes[(i+7)%64])
	}
}

// BenchmarkEngineConvergence measures full propagation of one
// origination through a random 300-AS Gao-Rexford economy.
func BenchmarkEngineConvergence(b *testing.B) {
	p := netutil.MustParsePrefix("203.0.113.0/24")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(42)) // #nosec benchmark randomness
		net := randomGaoRexfordNetwork(rng, 300)
		b.StartTimer()
		net.Originate(1, p)
		net.RunToQuiescence()
	}
}

// BenchmarkStaticSolve measures the worklist fixpoint solver on the
// same economy (the per-origin unit cost behind Tables 3-4/Figure 5),
// on a reused solver as core.ComputeOriginViews runs it.
func BenchmarkStaticSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(42)) // #nosec benchmark randomness
	net := randomGaoRexfordNetwork(rng, 300)
	p := netutil.MustParsePrefix("203.0.113.0/24")
	sv := net.NewStaticSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sv.Solve(p, []StaticOrigin{{Speaker: RouterID(1 + i%300)}})
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkPrependChange measures the cost of one experiment
// configuration change (the 9x-per-experiment operation).
func BenchmarkPrependChange(b *testing.B) {
	rng := rand.New(rand.NewSource(42)) // #nosec benchmark randomness
	net := randomGaoRexfordNetwork(rng, 300)
	p := netutil.MustParsePrefix("203.0.113.0/24")
	net.Originate(1, p)
	net.RunToQuiescence()
	nb := net.Speaker(1).Peers()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.SetPrefixPrepend(1, nb, p, 1+i%4)
		net.RunToQuiescence()
	}
}

// BenchmarkDeliveryChurn is the per-update path alone, on both layouts:
// TestDeliveryAllocs's prepend churn over a converged 160-AS network,
// one operation a prepend change at each of the 40 prefixes in turn
// (some deliver nothing, so one change alone can read zero), reported
// per delivered update. A change to a RIB store reads here in seconds;
// benchmark/'s event_storm is the same path end to end.
func BenchmarkDeliveryChurn(b *testing.B) {
	for _, layout := range []struct {
		name    string
		compact bool
	}{{"rows", false}, {"arena", true}} {
		b.Run(layout.name, func(b *testing.B) {
			const perOp = 40
			n, churn := deliveryChurnNet(layout.compact)
			for i := 0; i < perOp; i++ {
				churn(i) // the first pass grows the queue and scratch buffers
			}
			var before, after runtime.MemStats
			msgs0 := n.Churn.TotalMessages
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := perOp; i < perOp*(1+b.N); i++ {
				churn(i)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			delivered := float64(n.Churn.TotalMessages - msgs0)
			if delivered == 0 {
				b.Fatal("prepend churn delivered no updates")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/delivered, "ns/update")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/delivered, "allocs/update")
		})
	}
}

// BenchmarkFullScanWideSpeaker is the decision's full scan at a wide
// speaker: a collector with 256 sessions that holds one candidate per
// prefix, as the internet tier's first collector does. One operation
// withdraws the best route of one prefix, which leaves the collector
// only a full scan to find the runner-up, and re-announces it (a
// first-candidate fast path) so the table stays as it was.
func BenchmarkFullScanWideSpeaker(b *testing.B) {
	for _, layout := range []struct {
		name    string
		compact bool
	}{{"rows", false}, {"arena", true}} {
		b.Run(layout.name, func(b *testing.B) {
			const (
				sessions = 256
				prefixes = 1024
				hub      = RouterID(sessions + 1)
			)
			n := NewNetwork()
			n.SetCompactRIB(layout.compact)
			for i := 1; i <= sessions; i++ {
				n.AddSpeaker(RouterID(i), asn.AS(64500+i), "")
			}
			n.AddSpeaker(hub, 65000, "collector").Collector = true
			for i := 1; i <= sessions; i++ {
				n.Connect(hub, RouterID(i), bgp2custCfg(), bgp2provCfg())
			}
			pfx := make([]netutil.Prefix, prefixes)
			for i := range pfx {
				pfx[i] = netutil.PrefixFrom(uint32(0x0A000000+i*256), 24)
				n.Originate(RouterID(1+i%sessions), pfx[i])
			}
			n.RunToQuiescence()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % prefixes
				origin := RouterID(1 + k%sessions)
				n.WithdrawOrigination(origin, pfx[k])
				n.RunToQuiescence()
				n.Originate(origin, pfx[k])
				n.RunToQuiescence()
				n.Churn.Records = n.Churn.Records[:0] // the collector logs each update
			}
			b.StopTimer()
			if n.Speaker(hub).locRib.Len() != prefixes {
				b.Fatalf("collector holds %d best routes, want %d", n.Speaker(hub).locRib.Len(), prefixes)
			}
		})
	}
}
