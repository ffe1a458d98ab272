package bgp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// sameRoute reports whether two routes hold the same values, field by
// field: an arena store round-trips values, not pointers.
func sameRoute(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Prefix == b.Prefix && a.Path.Equal(b.Path) && a.Origin == b.Origin &&
		a.MED == b.MED && a.LocalPref == b.LocalPref && a.Class == b.Class &&
		a.From == b.From && a.FromAS == b.FromAS && a.EBGP == b.EBGP &&
		a.IGPCost == b.IGPCost && a.LearnedAt == b.LearnedAt &&
		communitiesEqual(a.Communities, b.Communities)
}

func sameRoutes(a, b []*Route) bool { return slices.EqualFunc(a, b, sameRoute) }

// checkArenaBooks checks an arena's adj-RIB-in index against its
// records: every chain is non-empty and strictly ascends by neighbor,
// the chains hold Len entries, no freed slot is on one, and every
// live record's reference count, at most 2, is the number of store
// entries holding it.
func checkArenaBooks(t *testing.T, where string, in *arenaStore, stores ...*arenaStore) {
	t.Helper()
	ar := in.ar
	onChain := make(map[uint32]bool)
	entries := 0
	for pi, at := range in.heads {
		if at == 0 {
			t.Fatalf("%s: prefix %d has an empty chain head", where, pi)
		}
		prev := int64(-1)
		for ; at != 0; at = ar.recs[at-1].next {
			slot := at - 1
			if onChain[slot] {
				t.Fatalf("%s: slot %d is on a chain twice", where, slot)
			}
			onChain[slot] = true
			if from := int64(ar.recs[slot].from); from <= prev {
				t.Fatalf("%s: prefix %d's chain goes from neighbor %d to %d", where, pi, prev, from)
			} else {
				prev = from
			}
			entries++
		}
	}
	if entries != in.Len() {
		t.Fatalf("%s: chains hold %d entries, Len %d", where, entries, in.Len())
	}
	free := make(map[uint32]bool, len(ar.free))
	for _, slot := range ar.free {
		if onChain[slot] {
			t.Fatalf("%s: freed slot %d is on a chain", where, slot)
		}
		free[slot] = true
	}
	holders := make([]int, len(ar.recs))
	for _, st := range stores {
		st.each(func(_ uint64, slot uint32) { holders[slot]++ })
	}
	for slot := range ar.recs {
		ref := ar.recs[slot].ref
		if free[uint32(slot)] {
			if holders[slot] != 0 {
				t.Fatalf("%s: freed slot %d is held by %d entries", where, slot, holders[slot])
			}
			continue
		}
		if ref > 2 || int(ref) != holders[slot] {
			t.Fatalf("%s: slot %d has ref %d, held by %d entries", where, slot, ref, holders[slot])
		}
	}
}

// TestArenaStoreMatchesReference drives one speaker arena's three
// stores — the adj-RIB-in chained by prefix, the loc-RIB that shares
// its records, and the adj-RIB-out — and three reference map stores
// through the same seeded operations: installs (a loc-RIB install is
// often a copy of an adj-RIB-in route, whose record it then shares),
// withdrawals, journal rounds ending in a rewind, resets, and restores
// (every store reset and reloaded in sorted key order, adj-RIB-in
// first, as a snapshot's apply does). After every step it holds the
// stores to the maps by value — Get on every key, Len, the sorted walk,
// the prefix list, the snapshot's keys, and the adj-RIB-in's candidate
// walk for every prefix — and checks the index's books
// (checkArenaBooks).
func TestArenaStoreMatchesReference(t *testing.T) {
	if got := unsafe.Sizeof(packedRoute{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(packedRoute{}) = %d, want 40", got)
	}
	const (
		steps    = 5000
		prefixes = 48
	)
	rng := rand.New(rand.NewSource(48)) // #nosec test randomness
	pfx := make([]netutil.Prefix, prefixes)
	for i := range pfx {
		pfx[i] = netutil.PrefixFrom(uint32(0x0A000000+rng.Intn(1<<16)*256), 8+rng.Intn(17))
	}
	// Neighbors of the adj-RIB keys; 99 is never installed, so Gets on
	// it read nil. RouterID 0 is the loc-RIB's key.
	pool := []RouterID{40, 7, 23, 11, 58, 3, 31, 19}
	ar := newSpeakerArena(newRIBBackend())
	in, loc, out := newAdjInStore(ar), newArenaStore(ar), newArenaStore(ar)
	loc.sibling = in
	stores := [3]*arenaStore{sideLoc: loc, sideIn: in, sideOut: out}
	refs := [3]*mapStore{newMapStore(), newMapStore(), newMapStore()}
	var jr *journal
	setJournal := func(j *journal) {
		jr = j
		in.setJournal(j)
		for _, ref := range refs {
			ref.setJournal(j)
		}
	}
	key := func(side rowSide) ribKey {
		k := ribKey{prefix: pfx[rng.Intn(len(pfx))]}
		if side != sideLoc {
			k.neighbor = pool[rng.Intn(len(pool))]
		}
		return k
	}
	route := func(k ribKey, step int) *Route {
		from := k.neighbor
		if from == 0 {
			from = pool[rng.Intn(len(pool))]
		}
		r := &Route{
			Prefix: k.prefix, Path: asn.Path{asn.AS(from), asn.AS(64500 + rng.Intn(4))},
			LocalPref: uint32(rng.Intn(3) * 100), From: from, FromAS: asn.AS(from),
			EBGP: true, LearnedAt: Time(step),
		}
		if rng.Intn(8) == 0 {
			r.Communities = NewCommunitySet(MakeCommunity(100, uint16(rng.Intn(3))))
		}
		return r
	}
	resets, rewinds, restores, shared := 0, 0, 0, 0

	check := func(step int, op string) {
		t.Helper()
		where := fmt.Sprintf("step %d (%s)", step, op)
		for side, st := range stores {
			ref := refs[side]
			for _, p := range pfx {
				for _, nb := range append(pool, 0, 99) {
					k := ribKey{prefix: p, neighbor: nb}
					if (side == int(sideLoc)) != (nb == 0) {
						continue
					}
					if got, want := st.Get(k), ref.Get(k); !sameRoute(got, want) {
						t.Fatalf("%s: side %d Get(%v/%d) = %v, reference %v", where, side, p, nb, got, want)
					}
				}
				if side == int(sideIn) {
					if got, want := st.appendRoutes(p, nil), ref.appendRoutes(p, nil); !sameRoutes(got, want) {
						t.Fatalf("%s: candidate walk of %v = %v, reference %v", where, p, got, want)
					}
				}
			}
			if st.Len() != ref.Len() {
				t.Fatalf("%s: side %d Len %d, reference %d", where, side, st.Len(), ref.Len())
			}
			var got, want []ribEntry
			st.WalkSorted(func(k ribKey, r *Route) bool { got = append(got, ribEntry{k, r}); return true })
			ref.WalkSorted(func(k ribKey, r *Route) bool { want = append(want, ribEntry{k, r}); return true })
			if !slices.EqualFunc(got, want, func(a, b ribEntry) bool { return a.k == b.k && sameRoute(a.r, b.r) }) {
				t.Fatalf("%s: side %d walks %d entries, reference %d, or others", where, side, len(got), len(want))
			}
			if got, want := sortedPrefixes(st), sortedPrefixes(ref); !slices.Equal(got, want) {
				t.Fatalf("%s: side %d lists prefixes %v, reference %v", where, side, got, want)
			}
			if n := len(st.appendPrefixes(nil)); n > st.Len() {
				t.Fatalf("%s: side %d lists %d prefixes for %d entries", where, side, n, st.Len())
			}
			keys := func(refs []ribRef) []ribKey {
				ks := make([]ribKey, len(refs))
				for i := range refs {
					ks[i] = refs[i].k
				}
				return ks
			}
			ri := &routeIndex{idx: map[*Route]uint32{}}
			if a, b := keys(st.appendSorted(nil, ri)), keys(ref.appendSorted(nil, ri)); !slices.Equal(a, b) {
				t.Fatalf("%s: side %d appendSorted keys differ from the reference's", where, side)
			}
		}
		checkArenaBooks(t, where, in, loc, in, out)
		loc.each(func(key uint64, slot uint32) {
			if sib, ok := in.find(key>>32<<32 | uint64(ar.recs[slot].from)); ok && sib == slot {
				shared++
			}
		})
	}

	for step := 0; step < steps; step++ {
		side := rowSide(rng.Intn(3))
		st, ref := stores[side], refs[side]
		op := ""
		switch x := rng.Intn(1000); {
		case x < 500:
			op = "install"
			k := key(side)
			r := route(k, step)
			if side == sideLoc && rng.Intn(3) != 0 {
				// The decision installs a candidate it just scanned.
				if cands := refs[sideIn].appendRoutes(k.prefix, nil); len(cands) > 0 {
					r = cands[rng.Intn(len(cands))]
					op = "install candidate"
				}
			}
			st.Install(k, r)
			ref.Install(k, r)
		case x < 900:
			op = "withdraw"
			k := key(side)
			if side != sideLoc && rng.Intn(10) == 0 {
				k.neighbor = 99
			}
			st.Withdraw(k)
			ref.Withdraw(k)
		case x < 910 && jr == nil:
			op = "reset"
			resets++
			st.Reset()
			ref.Reset()
		case x < 920 && jr == nil:
			op = "restore"
			restores++
			for _, s := range []rowSide{sideIn, sideLoc, sideOut} {
				var entries []ribEntry
				refs[s].WalkSorted(func(k ribKey, r *Route) bool { entries = append(entries, ribEntry{k, r}); return true })
				stores[s].load(snapTable(t, entries, true))
			}
		case x < 945 && jr == nil:
			op = "open journal"
			setJournal(&journal{})
		case x < 975 && jr != nil:
			op = "rewind"
			rewinds++
			replay(&jr.packed, (*packedUndo).undo)
			for _, ref := range refs {
				ref.rewind()
			}
			if rng.Intn(2) == 0 {
				setJournal(nil)
			}
		default:
			op = "get"
		}
		check(step, op)
	}
	t.Logf("%d steps: %d resets, %d restores, %d rewinds; %d loc-RIB entries seen sharing; %d records, %d free at the end",
		steps, resets, restores, rewinds, shared, len(ar.recs)-len(ar.free), len(ar.free))
	if resets == 0 || restores == 0 || rewinds == 0 || shared == 0 {
		t.Fatal("the operation mix missed a reset, a restore, a rewind or a shared loc-RIB record")
	}
}

// candidateSetReference is candidateSet as it was before the stores
// offered a candidate walk: one adj-RIB-in Get per session, in session
// order.
func candidateSetReference(s *Speaker, p netutil.Prefix, admit func(*Route) bool, buf []*Route) []*Route {
	if o, ok := s.originated[p]; ok && (admit == nil || admit(o.route)) {
		buf = append(buf, o.route)
	}
	for i := range s.sessions {
		k := ribKey{prefix: p, neighbor: s.sessions[i].nbID}
		if r := s.adjIn.Get(k); r != nil && !s.damped(k) && (admit == nil || admit(r)) {
			buf = append(buf, r)
		}
	}
	return buf
}

// TestCandidateWalkMatchesReference holds candidateSet, which walks
// the adj-RIB-in's routes for a prefix, to the per-session Get loop it
// replaced (candidateSetReference), on both stores: random Gao-Rexford
// networks with route-flap damping on every session, driven through
// random events and bursts of flaps, every speaker and prefix compared
// after every event, with and without an admit filter.
func TestCandidateWalkMatchesReference(t *testing.T) {
	prefixes := []netutil.Prefix{
		netutil.MustParsePrefix("203.0.113.0/24"),
		netutil.MustParsePrefix("198.51.100.0/24"),
		netutil.MustParsePrefix("192.0.2.0/24"),
	}
	customers := func(r *Route) bool { return r.Class == ClassCustomer || r.Class == ClassOwn }
	compared, damped := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 4099)) // #nosec test randomness
		size := 8 + rng.Intn(25)
		build := func(compact bool) *Network {
			n := NewNetwork()
			n.SetCompactRIB(compact)
			growGaoRexford(n, rand.New(rand.NewSource(seed)), size) // #nosec test randomness
			for _, id := range n.Speakers() {
				for _, nb := range n.Speaker(id).Peers() {
					n.Speaker(id).Peer(nb).RFD = DefaultRFD()
				}
			}
			return n
		}
		nets := []*Network{build(false), build(true)}
		check := func(when string) {
			t.Helper()
			for i, n := range nets {
				for _, id := range n.Speakers() {
					s := n.Speaker(id)
					if s.nSuppressed > 0 {
						damped++
					}
					for _, p := range prefixes {
						for _, admit := range []func(*Route) bool{nil, customers} {
							got := s.candidateSet(p, admit, nil)
							want := candidateSetReference(s, p, admit, nil)
							if !sameRoutes(got, want) {
								t.Fatalf("seed %d %s, arena=%v: speaker %d's candidates for %v are %v, reference %v", seed, when, i == 1, id, p, got, want)
							}
							compared++
						}
					}
				}
			}
		}
		origins := make([]RouterID, len(prefixes))
		for i, p := range prefixes {
			origins[i] = RouterID(1 + rng.Intn(size))
			for _, n := range nets {
				n.Originate(origins[i], p)
			}
		}
		for _, n := range nets {
			n.RunToQuiescence()
		}
		check("converged")
		ops := randomOps(rng, nets[0], prefixes, 24)
		for i, op := range ops {
			if i%4 == 0 {
				// A burst of flaps at one origin: its neighbors' damping
				// penalties pass the suppress threshold.
				k := rng.Intn(len(prefixes))
				for _, n := range nets {
					for j := 0; j < 3; j++ {
						n.WithdrawOrigination(origins[k], prefixes[k])
						n.Run(n.Now() + 2)
						n.AdvanceTo(n.Now() + 3)
						n.Originate(origins[k], prefixes[k])
						n.Run(n.Now() + 2)
					}
				}
				check(fmt.Sprintf("flaps before op %d", i))
			}
			for _, n := range nets {
				op(n)
			}
			check(fmt.Sprintf("op %d", i))
		}
	}
	t.Logf("%d candidate sets compared, %d speaker states with a damped route", compared, damped)
	if damped == 0 {
		t.Fatal("no speaker held a damped route: the walk's damping filter went untested")
	}
}
