package bgp

import (
	"math/rand"
	"testing"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// Default-vs-arena differential harness: the two ribStore layouts must
// be observationally identical. Every test here builds byte-identical
// topologies, one per layout, drives both through the same event
// stream, and compares full network signatures — RIBs, churn, clock —
// after every step. This is the contract that lets the compact layout
// replace the default wholesale at Internet scale. The default layout
// was a map per RIB when these tests were named ("map"); it is now the
// row table (ribstore.go), which TestRowStoreMatchesReference holds to
// that map.

// diffPair builds two byte-identical random networks, the second on
// the arena-backed compact layout, each with a collector attached so
// churn recording is exercised through both store implementations.
func diffPair(seed int64, n int) (mapNet, arenaNet *Network) {
	build := func(compact bool) *Network {
		rng := rand.New(rand.NewSource(seed)) // #nosec test randomness
		net := NewNetwork()
		net.SetCompactRIB(compact)
		growGaoRexford(net, rng, n)
		col := net.AddSpeaker(RouterID(n+1), asn.AS(64500), "collector")
		col.Collector = true
		net.Connect(RouterID(1+rng.Intn(n)), col.ID,
			PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer)},
			PeerConfig{ClassifyAs: ClassProvider, ExportAllow: GaoRexfordExport(ClassProvider)})
		return net
	}
	return build(false), build(true)
}

// TestArenaMatchesMapOnRandomEvents is the store-level differential
// check mirroring TestIncrementalMatchesFullOnRandomEvents: random
// topologies and random event sequences (prepends, flaps, originate/
// withdraw churn, partial drains), with byte-equal observable state
// required after every op. Both layouts run the full-scan reference.
func TestArenaMatchesMapOnRandomEvents(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed * 6211)) // #nosec test randomness
		size := 8 + rng.Intn(25)
		mapNet, arenaNet := diffPair(seed, size)
		mapNet.SetReferenceScan(true)
		arenaNet.SetReferenceScan(true)

		prefixes := []netutil.Prefix{
			netutil.MustParsePrefix("203.0.113.0/24"),
			netutil.MustParsePrefix("198.51.100.0/24"),
			netutil.MustParsePrefix("192.0.2.0/24"),
		}
		for _, p := range prefixes {
			origin := RouterID(1 + rng.Intn(size))
			mapNet.Originate(origin, p)
			arenaNet.Originate(origin, p)
		}
		mapNet.RunToQuiescence()
		arenaNet.RunToQuiescence()
		if a, b := networkSignature(mapNet), networkSignature(arenaNet); a != b {
			t.Fatalf("seed %d: initial convergence diverged:\n--- map ---\n%s\n--- arena ---\n%s", seed, a, b)
		}

		ops := randomOps(rng, mapNet, prefixes, 12)
		for i, op := range ops {
			op(mapNet)
			op(arenaNet)
			if a, b := networkSignature(mapNet), networkSignature(arenaNet); a != b {
				t.Fatalf("seed %d: signatures diverged after op %d:\n--- map ---\n%s\n--- arena ---\n%s", seed, i, a, b)
			}
		}
	}
}

// TestArenaMatchesMapIncremental runs the same differential with both
// networks on the engine: the dirty-set and single-comparison fast
// paths read and write through the store interface too, and must not
// observe a difference between layouts.
func TestArenaMatchesMapIncremental(t *testing.T) {
	for seed := int64(20); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed * 4099)) // #nosec test randomness
		size := 8 + rng.Intn(20)
		mapNet, arenaNet := diffPair(seed, size)

		prefixes := []netutil.Prefix{
			netutil.MustParsePrefix("203.0.113.0/24"),
			netutil.MustParsePrefix("198.51.100.0/24"),
		}
		for _, p := range prefixes {
			origin := RouterID(1 + rng.Intn(size))
			mapNet.Originate(origin, p)
			arenaNet.Originate(origin, p)
		}
		mapNet.RunToQuiescence()
		arenaNet.RunToQuiescence()

		ops := randomOps(rng, mapNet, prefixes, 10)
		for i, op := range ops {
			op(mapNet)
			op(arenaNet)
			if a, b := networkSignature(mapNet), networkSignature(arenaNet); a != b {
				t.Fatalf("seed %d: incremental signatures diverged after op %d:\n--- map ---\n%s\n--- arena ---\n%s", seed, i, a, b)
			}
		}
	}
}

// TestPropertyArenaCommutingBatches is the satellite property test:
// over random commuting event batches (one prepend op per distinct
// prefix), every application order on either store layout converges to
// the same loc-RIB, byte for byte. The reference signature comes from
// the default layout in identity order; permutations run on the arena
// layout, so the property also covers arena slot-reuse order effects.
func TestPropertyArenaCommutingBatches(t *testing.T) {
	type setOp struct {
		router, nb RouterID
		prefix     netutil.Prefix
		k          int
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed * 15731)) // #nosec test randomness
		size := 8 + rng.Intn(12)
		prefixes := []netutil.Prefix{
			netutil.MustParsePrefix("203.0.113.0/24"),
			netutil.MustParsePrefix("198.51.100.0/24"),
			netutil.MustParsePrefix("192.0.2.0/24"),
			netutil.MustParsePrefix("100.64.0.0/24"),
		}
		origins := make([]RouterID, len(prefixes))
		for i := range prefixes {
			origins[i] = RouterID(1 + rng.Intn(size))
		}
		build := func(compact bool) *Network {
			net := NewNetwork()
			net.SetCompactRIB(compact)
			growGaoRexford(net, rand.New(rand.NewSource(seed)), size) // #nosec test randomness
			for i, p := range prefixes {
				net.Originate(origins[i], p)
			}
			net.RunToQuiescence()
			return net
		}

		template := build(false)
		var batch []setOp
		for _, p := range prefixes {
			id := template.Speakers()[rng.Intn(size)]
			peers := template.Speaker(id).Peers()
			if len(peers) == 0 {
				continue
			}
			batch = append(batch, setOp{router: id, nb: peers[rng.Intn(len(peers))], prefix: p, k: rng.Intn(4)})
		}

		apply := func(net *Network, order []int) string {
			for _, i := range order {
				op := batch[i]
				net.SetPrefixPrepend(op.router, op.nb, op.prefix, op.k)
			}
			net.RunToQuiescence()
			requireExportsSettled(t, net)
			return ribSignature(net)
		}

		ref := make([]int, len(batch))
		for i := range ref {
			ref[i] = i
		}
		want := apply(template, ref)
		for trial := 0; trial < 4; trial++ {
			perm := append([]int(nil), ref...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			if got := apply(build(true), perm); got != want {
				t.Fatalf("seed %d: arena permutation %v diverged from map reference:\n--- map ---\n%s\n--- arena ---\n%s",
					seed, perm, want, got)
			}
		}
	}
}

// TestArenaSharingStats: on a converged compact network the loc-RIB
// overwhelmingly shares adj-RIB-in records (delta encoding), distinct
// paths stay far below route count (interning), and the modelled
// per-route footprint meets the Internet-scale budget.
func TestArenaSharingStats(t *testing.T) {
	rng := rand.New(rand.NewSource(77)) // #nosec test randomness
	net := NewNetwork()
	net.SetCompactRIB(true)
	growGaoRexford(net, rng, 40)
	for i := 0; i < 8; i++ {
		net.Originate(RouterID(1+rng.Intn(40)), netutil.MustParsePrefix(
			[]string{"203.0.113.0/24", "198.51.100.0/24", "192.0.2.0/24", "100.64.0.0/24",
				"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"}[i]))
	}
	net.RunToQuiescence()

	rs := net.RIBStats()
	if rs.Routes == 0 || rs.Records == 0 {
		t.Fatalf("empty stats on a converged network: %+v", rs)
	}
	locEntries := 0
	for _, id := range net.Speakers() {
		locEntries += net.Speaker(id).locRib.Len()
	}
	if rs.SharedLocRib < locEntries*9/10 {
		t.Errorf("loc-RIB sharing %d/%d below 90%%: delta encoding is not engaging", rs.SharedLocRib, locEntries)
	}
	if rs.DistinctPaths >= rs.Routes/2 {
		t.Errorf("distinct paths %d vs routes %d: interning is not collapsing duplicates", rs.DistinctPaths, rs.Routes)
	}
	// The hard ≤64 budget is gated at Internet scale (see
	// BenchmarkInternetScaleRIB), where path amortisation fully engages;
	// a 40-node toy carries proportionally more path-table overhead.
	if bpr := rs.BytesPerRoute(); bpr > 96 {
		t.Errorf("modelled bytes/route %.1f far above budget even for a toy topology: %+v", bpr, rs)
	}
}

// TestCompactRIBGuards pins the API misuse panics: enabling compact
// mode after speakers exist, and RouterID 0 (reserved as the loc-RIB
// store key) in compact mode.
func TestCompactRIBGuards(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("late SetCompactRIB", func() {
		net := NewNetwork()
		net.AddSpeaker(1, 65001, "")
		net.SetCompactRIB(true)
	})
	expectPanic("RouterID 0 in compact mode", func() {
		net := NewNetwork()
		net.SetCompactRIB(true)
		net.AddSpeaker(0, 65001, "")
	})
}
