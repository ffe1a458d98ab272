package bgp

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp/pathtab"
	"repro/internal/netutil"
	snap "repro/internal/snapshot"
)

// snapTable returns what a snapshot of entries decodes into on a base
// of the given form (packed: an arena): the route table, one route per
// entry in order, and the entries' refs into it.
func snapTable(t *testing.T, entries []ribEntry, packed bool) ([]ribRef, *snapRoutes) {
	t.Helper()
	pt := newSnapPaths(nil)
	var e snap.Enc
	e.Uvarint(uint64(len(entries)))
	refs := make([]ribRef, len(entries))
	for i, en := range entries {
		encRoute(&e, en.r, pt.id(en.r.Path))
		refs[i] = ribRef{k: en.k, idx: uint32(i)}
	}
	rt, err := decodeRoutes(e.Bytes(), pt.list, packed)
	if err != nil {
		t.Fatal(err)
	}
	return refs, rt
}

// installLoad is a restore's load as it was before the stores had a
// bulk load: a Reset, then an Install per entry in file order. It is
// the reference TestArenaRestoreMatchesInstall holds the arena's
// loader to.
func installLoad(st ribStore, refs []ribRef, rt *snapRoutes) {
	st.Reset()
	for _, ref := range refs {
		st.Install(ref.k, rt.route(ref.idx))
	}
}

// installStore is a store that restores through installLoad instead of
// its own loader.
type installStore struct{ ribStore }

func (st installStore) load(refs []ribRef, rt *snapRoutes) { installLoad(st.ribStore, refs, rt) }

// restoreByInstall restores data into base through installLoad.
func restoreByInstall(t *testing.T, data []byte, base *Network) {
	t.Helper()
	for _, s := range base.speakers {
		s.adjIn, s.locRib, s.adjOut = installStore{s.adjIn}, installStore{s.locRib}, installStore{s.adjOut}
	}
	err := RestoreNetwork(bytes.NewReader(data), base)
	for _, s := range base.speakers {
		s.adjIn, s.locRib, s.adjOut = s.adjIn.(installStore).ribStore, s.locRib.(installStore).ribStore, s.adjOut.(installStore).ribStore
	}
	if err != nil {
		t.Fatal(err)
	}
}

// sameArenas requires two arena networks' RIB state to be identical
// slot for slot: every speaker's records (ref and chain link included,
// free slots too), free list, communities, chain heads and slot maps,
// the prefix index and the path table, and RIBStats.
func sameArenas(t *testing.T, where string, a, b *Network) {
	t.Helper()
	for _, id := range a.order {
		sa, sb := a.speakers[id], b.speakers[id]
		in, loc, out := sa.adjIn.(*arenaStore), sa.locRib.(*arenaStore), sa.adjOut.(*arenaStore)
		inB, locB, outB := sb.adjIn.(*arenaStore), sb.locRib.(*arenaStore), sb.adjOut.(*arenaStore)
		ar, arB := in.ar, inB.ar
		if i := firstDiff(ar.recs, arB.recs); i >= 0 {
			t.Fatalf("%s: speaker %d's arenas differ first at slot %d of %d/%d", where, id, i, len(ar.recs), len(arB.recs))
		}
		if !slices.Equal(ar.free, arB.free) {
			t.Fatalf("%s: speaker %d's free lists differ: %v, %v", where, id, ar.free, arB.free)
		}
		if !maps.EqualFunc(ar.comms, arB.comms, communitiesEqual) {
			t.Fatalf("%s: speaker %d's communities differ", where, id)
		}
		if !maps.Equal(in.heads, inB.heads) || in.n != inB.n {
			t.Fatalf("%s: speaker %d's adj-RIB-in chain heads differ", where, id)
		}
		if !maps.Equal(loc.slots, locB.slots) || !maps.Equal(out.slots, outB.slots) {
			t.Fatalf("%s: speaker %d's loc-RIB or adj-RIB-out slots differ", where, id)
		}
	}
	if !slices.Equal(a.ribBE.prefixes.list, b.ribBE.prefixes.list) {
		t.Fatalf("%s: prefix indices differ", where)
	}
	pa, pb := a.ribBE.paths, b.ribBE.paths
	if pa.Len() != pb.Len() {
		t.Fatalf("%s: path tables hold %d and %d paths", where, pa.Len(), pb.Len())
	}
	for x := 1; x <= pa.Len(); x++ {
		if !pa.Resolve(pathtab.ID(x)).Equal(pb.Resolve(pathtab.ID(x))) {
			t.Fatalf("%s: path %d differs", where, x)
		}
	}
	if sa, sb := a.RIBStats(), b.RIBStats(); sa != sb {
		t.Fatalf("%s: RIBStats %+v and %+v", where, sa, sb)
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []packedRoute) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestArenaRestoreMatchesInstall holds the arena's bulk loader to the
// Install loop it replaced (installLoad): random arena networks, each
// snapshotted after rounds of random inputs under a journal that end
// in a rewind, are restored twice into identically built bases — once
// through RestoreNetwork, once through an Install per entry — and the
// two must agree slot for slot (sameArenas). Half the bases are fresh;
// the other half held routes and withdrew them all first, so their
// arenas hand out slots from a free list.
func TestArenaRestoreMatchesInstall(t *testing.T) {
	prefixes := []netutil.Prefix{
		netutil.MustParsePrefix("203.0.113.0/24"),
		netutil.MustParsePrefix("198.51.100.0/24"),
		netutil.MustParsePrefix("192.0.2.0/24"),
		netutil.MustParsePrefix("10.0.0.0/8"),
	}
	var snapshots, fromFree, shared, chained int
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919)) // #nosec test randomness
		size := 8 + rng.Intn(16)
		origins := make([]RouterID, len(prefixes))
		for i := range origins {
			origins[i] = RouterID(1 + rng.Intn(size))
		}
		originate := func(n *Network) {
			for i, p := range prefixes {
				var opts OriginateOpts
				if i%2 == 1 {
					opts.Communities = NewCommunitySet(MakeCommunity(100, uint16(i)))
				}
				n.OriginateWith(origins[i], p, opts)
			}
			n.RunToQuiescence()
		}
		base := func(dirty bool) *Network {
			_, n := diffPair(seed, size)
			if dirty {
				originate(n)
				for i, p := range prefixes {
					n.WithdrawOrigination(origins[i], p)
				}
				n.RunToQuiescence()
			}
			return n
		}
		_, src := diffPair(seed, size)
		originate(src)
		for round := 0; round < 3; round++ {
			if err := src.OpenJournal(); err != nil {
				t.Fatal(err)
			}
			for _, op := range randomOps(rng, src, prefixes, 2+rng.Intn(6)) {
				op(src)
			}
			if err := src.Rewind(); err != nil {
				t.Fatal(err)
			}
			src.CloseJournal()
			for _, op := range randomOps(rng, src, prefixes, 1+rng.Intn(4)) {
				op(src)
			}
			data := mustSnapshot(t, src)
			dirty := round%2 == int(seed%2)
			bulk, ref := base(dirty), base(dirty)
			where := fmt.Sprintf("seed %d round %d (dirty base %v)", seed, round, dirty)
			sameArenas(t, where+", before the restores", bulk, ref)
			free := make(map[RouterID]int)
			for _, s := range bulk.speakers {
				free[s.ID] = len(s.adjIn.(*arenaStore).ar.free)
			}
			if err := RestoreNetwork(bytes.NewReader(data), bulk); err != nil {
				t.Fatal(err)
			}
			restoreByInstall(t, data, ref)
			sameArenas(t, where, bulk, ref)
			if !bytes.Equal(mustSnapshot(t, bulk), data) {
				t.Fatalf("%s: the bulk-loaded network snapshots unlike its source", where)
			}
			snapshots++
			shared += bulk.RIBStats().SharedLocRib
			for _, s := range bulk.speakers {
				in := s.adjIn.(*arenaStore)
				if len(in.ar.free) < free[s.ID] {
					fromFree++
				}
				if in.n > len(in.heads) {
					chained++
				}
			}
		}
	}
	t.Logf("%d snapshots restored both ways: %d speakers took slots from a free list, %d held a chain longer than one, %d loc-RIB records shared",
		snapshots, fromFree, chained, shared)
	if fromFree == 0 || chained == 0 || shared == 0 {
		t.Fatal("the restores never took a free slot, chained two records or shared a loc-RIB record")
	}
}

// TestArenaSortedMatchesReference holds the arena's one sort routine —
// integer keys over prefix ranks, as a snapshot walks a store
// (appendSorted, ranks over the whole prefix index) and as WalkSorted
// does (ranks over the store's own prefixes) — to a sort of the
// store's entries by ribKey.compare, on random stores. The prefix index
// is filled in an order unlike prefix order, its prefixes share
// addresses at several lengths and span the address space, and the
// adj-RIB-in holds a 0.0.0.0/0 chain from 256 sessions.
func TestArenaSortedMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed)) // #nosec test randomness
		be := newRIBBackend()
		pfx := []netutil.Prefix{
			netutil.MustParsePrefix("0.0.0.0/0"),
			netutil.MustParsePrefix("255.255.255.255/32"),
			netutil.MustParsePrefix("10.0.0.0/8"),
			netutil.MustParsePrefix("10.0.0.0/16"),
			netutil.MustParsePrefix("10.0.0.0/24"),
			netutil.MustParsePrefix("128.0.0.0/1"),
		}
		for len(pfx) < 64 {
			pfx = append(pfx, netutil.PrefixFrom(rng.Uint32(), rng.Intn(33)))
		}
		// A network's index numbers prefixes as it first meets them.
		rng.Shuffle(len(pfx), func(i, j int) { pfx[i], pfx[j] = pfx[j], pfx[i] })
		for _, p := range pfx {
			be.prefixes.Add(p)
		}
		ar := newSpeakerArena(be)
		in, loc, out := newAdjInStore(ar), newArenaStore(ar), newArenaStore(ar)
		loc.sibling = in
		route := func(p netutil.Prefix, from RouterID) *Route {
			return &Route{Prefix: p, Path: asn.Path{asn.AS(from), 64500}, From: from, FromAS: asn.AS(from), EBGP: true}
		}
		def := netutil.MustParsePrefix("0.0.0.0/0")
		for nb := RouterID(1); nb <= 256; nb++ {
			in.Install(ribKey{prefix: def, neighbor: nb}, route(def, nb))
		}
		for range 400 {
			p, nb := pfx[rng.Intn(len(pfx))], RouterID(1+rng.Intn(300))
			switch rng.Intn(4) {
			case 0:
				loc.Install(locKey(p), route(p, nb))
			case 1:
				out.Install(ribKey{prefix: p, neighbor: nb}, route(p, nb))
			case 2:
				in.Withdraw(ribKey{prefix: p, neighbor: nb})
			default:
				in.Install(ribKey{prefix: p, neighbor: nb}, route(p, nb))
			}
		}
		ri := &routeIndex{}
		for side, st := range map[string]*arenaStore{"adj-RIB-in": in, "loc-RIB": loc, "adj-RIB-out": out} {
			var want []ribRef
			st.each(func(key uint64, slot uint32) {
				k := ribKey{prefix: be.prefixes.At(uint32(key >> 32)), neighbor: RouterID(key)}
				want = append(want, ribRef{k: k, slot: slot})
			})
			slices.SortFunc(want, func(a, b ribRef) int { return a.k.compare(b.k) })
			got := st.sorted(nil, st.ownRanks())
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: the %s walk over its own ranks differs from the reference sort", seed, side)
			}
			snapped := st.appendSorted(nil, ri)
			for i := range snapped {
				snapped[i].idx = 0
			}
			if !slices.Equal(snapped, want) {
				t.Fatalf("seed %d: the %s walk over the index's ranks differs from the reference sort", seed, side)
			}
		}
	}
}
