package bgp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netutil"
)

// mapStore is the RIB layout the row table replaced, kept as the
// oracle TestRowStoreMatchesReference holds it to: a bare route map
// per RIB, pointer-exact. While a journal is set it logs what each
// write overwrites in its own log, which rewind replays.
type mapStore struct {
	m   map[ribKey]*Route
	jr  *journal
	log keyedLog[ribKey, *Route]
}

func newMapStore() *mapStore { return &mapStore{m: make(map[ribKey]*Route)} }

// ribEntry is one (key, route) pair of a store, as a sorted walk visits
// it.
type ribEntry struct {
	k ribKey
	r *Route
}

func (st *mapStore) Get(k ribKey) *Route { return st.m[k] }

func (st *mapStore) Install(k ribKey, r *Route) {
	if r == nil {
		panic("bgp: Install(nil route); use Withdraw")
	}
	if st.jr != nil {
		st.log.save(&st.m, k)
	}
	st.m[k] = r
}

func (st *mapStore) Withdraw(k ribKey) {
	if st.jr != nil {
		st.log.save(&st.m, k)
	}
	delete(st.m, k)
}

func (st *mapStore) stored(_ ribKey, r *Route) *Route { return r }

func (st *mapStore) setJournal(j *journal) { st.jr = j }

// rewind undoes every write since the journal was set.
func (st *mapStore) rewind() { st.log.undo() }

// appendRoutes appends p's entries in neighbor order, from a sorted
// walk of the whole map.
func (st *mapStore) appendRoutes(p netutil.Prefix, dst []*Route) []*Route {
	st.WalkSorted(func(k ribKey, r *Route) bool {
		if k.prefix == p {
			dst = append(dst, r)
		}
		return true
	})
	return dst
}

func (st *mapStore) Len() int { return len(st.m) }

func (st *mapStore) Reset() { clear(st.m) }

func (st *mapStore) appendPrefixes(dst []netutil.Prefix) []netutil.Prefix {
	for k := range st.m {
		dst = append(dst, k.prefix)
	}
	return dst
}

func (st *mapStore) load(refs []ribRef, rt *snapRoutes) { installLoad(st, refs, rt) }

func (st *mapStore) appendSorted(refs []ribRef, ri *routeIndex) []ribRef {
	st.WalkSorted(func(k ribKey, r *Route) bool {
		refs = append(refs, ribRef{k: k, idx: ri.add(r)})
		return true
	})
	return refs
}

func (st *mapStore) WalkSorted(fn func(k ribKey, r *Route) bool) {
	entries := make([]ribEntry, 0, len(st.m))
	for k, r := range st.m {
		entries = append(entries, ribEntry{k, r})
	}
	slices.SortFunc(entries, func(a, b ribEntry) int { return a.k.compare(b.k) })
	for _, e := range entries {
		if !fn(e.k, e.r) {
			return
		}
	}
}

// TestRowStoreMatchesReference drives a row table's three views and
// three reference map stores through the same seeded operations —
// installs (some sharing one *Route), withdrawals, one-side resets,
// sessions added mid-life (a re-stride of every row), mass
// withdrawals that compact the slab, and journal rounds ending in a
// rewind — and after every step holds the views to the maps: Get on
// every key, Len, the sorted walk and the snapshot's refs. It also
// checks the table's own books: one row per prefix held, live counts,
// and no more than half the slab free outside a journal.
func TestRowStoreMatchesReference(t *testing.T) {
	const (
		steps    = 6000
		prefixes = 72
	)
	rng := rand.New(rand.NewSource(38)) // #nosec test randomness
	pfx := make([]netutil.Prefix, prefixes)
	for i := range pfx {
		pfx[i] = netutil.PrefixFrom(uint32(0x0A000000+rng.Intn(1<<16)*256), 8+rng.Intn(17))
	}
	// Session neighbors join from this pool; 0 is a legal neighbor ID
	// for the row table, and 99 never joins, so Gets on it read nil.
	pool := []RouterID{40, 7, 0, 23, 11, 58, 3, 31, 19, 44, 2, 50}
	owner := newSpeaker(1, 1, "")
	rows := newRibRows(owner)
	owner.rows = rows
	views := [3]ribStore{rows.view(sideLoc), rows.view(sideIn), rows.view(sideOut)}
	refs := [3]*mapStore{newMapStore(), newMapStore(), newMapStore()}
	var peers []RouterID
	addPeer := func() {
		nb := pool[len(peers)]
		peers = append(peers, nb)
		owner.addPeer(newSpeaker(nb, 0, ""), &PeerConfig{Neighbor: nb}, nil)
	}
	for range 3 {
		addPeer()
	}
	key := func(side rowSide) ribKey {
		k := ribKey{prefix: pfx[rng.Intn(len(pfx))]}
		if side != sideLoc {
			k.neighbor = peers[rng.Intn(len(peers))]
		}
		return k
	}
	var last *Route
	var jr *journal
	setJournal := func(j *journal) {
		jr = j
		for side := range views {
			views[side].setJournal(j)
			refs[side].setJournal(j)
		}
	}
	restrides, resets, rewinds, compactions := 0, 0, 0, 0

	check := func(step int, op string) {
		t.Helper()
		held := map[netutil.Prefix]bool{}
		for side := range views {
			v, ref := views[side], refs[side]
			for _, p := range pfx {
				for _, nb := range append(pool, 99) {
					k := ribKey{prefix: p, neighbor: nb}
					if side == int(sideLoc) && nb != 0 {
						continue
					}
					if got, want := v.Get(k), ref.Get(k); got != want {
						t.Fatalf("step %d (%s): side %d Get(%v/%d) = %p, reference %p", step, op, side, p, nb, got, want)
					}
				}
			}
			if v.Len() != ref.Len() {
				t.Fatalf("step %d (%s): side %d Len %d, reference %d", step, op, side, v.Len(), ref.Len())
			}
			var got, want []ribEntry
			v.WalkSorted(func(k ribKey, r *Route) bool { got = append(got, ribEntry{k, r}); return true })
			ref.WalkSorted(func(k ribKey, r *Route) bool { want = append(want, ribEntry{k, r}); return true })
			if !slices.Equal(got, want) {
				t.Fatalf("step %d (%s): side %d walks %d entries, reference %d, or in another order", step, op, side, len(got), len(want))
			}
			for _, e := range want {
				held[e.k.prefix] = true
			}
			if got, want := sortedPrefixes(v), sortedPrefixes(ref); !slices.Equal(got, want) {
				t.Fatalf("step %d (%s): side %d lists prefixes %v, reference %v", step, op, side, got, want)
			}
			if n := len(v.appendPrefixes(nil)); n > v.Len() {
				t.Fatalf("step %d (%s): side %d lists %d prefixes for %d entries", step, op, side, n, v.Len())
			}
			riGot, riWant := &routeIndex{idx: map[*Route]uint32{}}, &routeIndex{idx: map[*Route]uint32{}}
			if a, b := v.appendSorted(nil, riGot), ref.appendSorted(nil, riWant); !slices.Equal(a, b) {
				t.Fatalf("step %d (%s): side %d appendSorted refs differ from the reference's", step, op, side)
			}
		}
		if len(rows.index) != len(held) {
			t.Fatalf("step %d (%s): %d rows indexed for %d prefixes held", step, op, len(rows.index), len(held))
		}
		for p, r := range rows.index {
			n := int32(0)
			for _, c := range rows.cells[int(r)*rows.stride : (int(r)+1)*rows.stride] {
				if c != nil {
					n++
				}
			}
			if rows.prefix[r] != p || rows.live[r] != n || n == 0 {
				t.Fatalf("step %d (%s): row %d of %v counts %d live cells, holds %d", step, op, r, p, rows.live[r], n)
			}
		}
		if free := len(rows.free); jr == nil && free >= compactMin && 2*free > len(rows.prefix) {
			t.Fatalf("step %d (%s): %d of %d rows free outside a journal", step, op, free, len(rows.prefix))
		}
		if len(rows.prefix)-len(rows.free) != len(rows.index) {
			t.Fatalf("step %d (%s): %d rows, %d free, %d indexed", step, op, len(rows.prefix), len(rows.free), len(rows.index))
		}
	}

	for step := 0; step < steps; step++ {
		side := rowSide(rng.Intn(3))
		v, ref := views[side], refs[side]
		op := ""
		switch x := rng.Intn(1000); {
		case x < 480:
			op = "install"
			k := key(side)
			r := last
			if r == nil || rng.Intn(4) != 0 {
				r = &Route{Prefix: k.prefix, From: k.neighbor, LocalPref: uint32(step)}
			}
			last = r
			v.Install(k, r)
			ref.Install(k, r)
		case x < 900:
			op = "withdraw"
			k := key(side)
			if side != sideLoc && rng.Intn(10) == 0 {
				k.neighbor = 99
			}
			v.Withdraw(k)
			ref.Withdraw(k)
		case x < 915:
			// A mass withdrawal: every entry of three prefixes in four.
			op = "drain"
			before := len(rows.prefix)
			for s := range views {
				var drop []ribKey
				refs[s].WalkSorted(func(k ribKey, _ *Route) bool {
					if slices.Index(pfx, k.prefix)%4 != 0 {
						drop = append(drop, k)
					}
					return true
				})
				for _, k := range drop {
					views[s].Withdraw(k)
					refs[s].Withdraw(k)
				}
			}
			if len(rows.prefix) < before {
				compactions++
			}
		case x < 925 && jr == nil:
			op = "reset"
			resets++
			v.Reset()
			ref.Reset()
		case x < 935 && jr == nil && len(peers) < len(pool):
			op = "addPeer"
			if len(rows.index) > 0 {
				restrides++
			}
			addPeer()
		case x < 955 && jr == nil:
			op = "open journal"
			setJournal(&journal{})
		case x < 985 && jr != nil:
			op = "rewind"
			rewinds++
			replay(&jr.rows, (*rowUndo).undo)
			for _, ref := range refs {
				ref.rewind()
			}
			if rng.Intn(2) == 0 {
				setJournal(nil)
			}
		default:
			op = "get"
			k := key(side)
			if got, want := v.Get(k), ref.Get(k); got != want {
				t.Fatalf("step %d: Get(%v/%d) = %p, reference %p", step, k.prefix, k.neighbor, got, want)
			}
		}
		check(step, op)
	}
	t.Logf("%d steps: %d re-strides with rows present, %d resets, %d rewinds, %d compacting drains; %d sessions, %d rows at the end",
		steps, restrides, resets, rewinds, compactions, len(peers), len(rows.prefix))
	if restrides == 0 || resets == 0 || rewinds == 0 || compactions == 0 {
		t.Fatal("the operation mix missed a re-stride, a reset, a rewind or a compaction")
	}
}

// sortedPrefixes is st's appendPrefixes, each prefix once, in order.
func sortedPrefixes(st ribStore) []netutil.Prefix {
	ps := st.appendPrefixes(nil)
	slices.SortFunc(ps, netutil.ComparePrefixes)
	return slices.Compact(ps)
}

// exportableReference is the speaker's exportable prefix list as it
// was computed before the stores listed their own prefixes: a set of
// the originations and every loc-RIB and adj-RIB-out key, sorted.
func exportableReference(s *Speaker) []netutil.Prefix {
	set := make(map[netutil.Prefix]bool)
	for p := range s.originated {
		set[p] = true
	}
	for _, st := range []ribStore{s.locRib, s.adjOut} {
		st.WalkSorted(func(k ribKey, _ *Route) bool {
			set[k.prefix] = true
			return true
		})
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]netutil.Prefix, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	netutil.SortPrefixes(out)
	return out
}

// TestExportablePrefixesMatchesReference holds exportablePrefixes to
// the map reference on both stores, for every speaker, after every op
// of random event sequences (prepends, flaps, originate/withdraw churn,
// partial drains, so mid-flight states with adj-RIB-out entries the
// loc-RIB no longer backs).
func TestExportablePrefixesMatchesReference(t *testing.T) {
	prefixes := []netutil.Prefix{
		netutil.MustParsePrefix("203.0.113.0/24"),
		netutil.MustParsePrefix("198.51.100.0/24"),
		netutil.MustParsePrefix("192.0.2.0/24"),
		netutil.MustParsePrefix("10.0.0.0/8"),
	}
	checked := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919)) // #nosec test randomness
		size := 8 + rng.Intn(25)
		rowsNet, arenaNet := diffPair(seed, size)
		nets := []*Network{rowsNet, arenaNet}
		check := func(when string) {
			t.Helper()
			for i, n := range nets {
				for _, id := range n.Speakers() {
					s := n.Speaker(id)
					if got, want := s.exportablePrefixes(), exportableReference(s); !slices.Equal(got, want) {
						t.Fatalf("seed %d %s, arena=%v: speaker %d lists %v, reference %v", seed, when, i == 1, id, got, want)
					}
					checked++
				}
			}
		}
		check("before any origination")
		for _, p := range prefixes {
			origin := RouterID(1 + rng.Intn(size))
			for _, n := range nets {
				n.Originate(origin, p)
			}
		}
		check("after originating")
		for _, n := range nets {
			n.RunToQuiescence()
		}
		check("converged")
		for i, op := range randomOps(rng, rowsNet, prefixes, 16) {
			for _, n := range nets {
				op(n)
			}
			check(fmt.Sprintf("op %d", i))
		}
	}
	t.Logf("%d speaker states compared", checked)
}

// TestExportablePrefixesAllocs: on the default rows the list is one
// allocation, the slice it returns, and nothing for a speaker holding
// no state.
func TestExportablePrefixesAllocs(t *testing.T) {
	rowsNet, _ := diffPair(3, 20)
	for i, p := range []string{"203.0.113.0/24", "198.51.100.0/24", "192.0.2.0/24"} {
		rowsNet.Originate(RouterID(1+i), netutil.MustParsePrefix(p))
	}
	rowsNet.RunToQuiescence()
	s := rowsNet.Speaker(1)
	if len(s.exportablePrefixes()) < 2 {
		t.Fatalf("speaker 1 lists %v, want several prefixes", s.exportablePrefixes())
	}
	if a := testing.AllocsPerRun(100, func() { s.exportablePrefixes() }); a != 1 {
		t.Errorf("exportablePrefixes allocated %v times, want 1", a)
	}
	empty := NewNetwork().AddSpeaker(1, 64501, "")
	if a := testing.AllocsPerRun(100, func() { empty.exportablePrefixes() }); a != 0 {
		t.Errorf("exportablePrefixes of an empty speaker allocated %v times, want 0", a)
	}
}
