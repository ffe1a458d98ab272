package bgp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// Metamorphic properties of the decision process and the engine. These
// complement the differential harness in incremental_test.go: instead
// of checking engine-vs-reference agreement, they pin invariants both
// must satisfy.

// prepended returns a copy of r with k extra copies of its own head AS
// at the front — the shape every export-side prepend produces.
func prepended(r *Route, k int) *Route {
	c := *r
	head := asn.AS(0)
	if len(r.Path) > 0 {
		head = r.Path[0]
	}
	c.Path = r.Path.Prepend(head, k)
	return &c
}

// requireExportsSettled pins what quiescence means for exports: every
// up session of every non-collector speaker carries what its speaker
// would announce now. For each exportable prefix the adj-RIB-out equals
// the export computed afresh (absent = withheld), and where the session
// carries an announcement the neighbour's adj-RIB-in holds its path,
// unless the neighbour's loop detection or import filter drops it. An
// update or flush timer lost on the way leaves a session stale with
// nothing queued to repair it; this finds it. A withheld export is not
// checked at the neighbour: an update queued before a session reset is
// still delivered if the session is back up first (ROADMAP item 1), so
// a withdrawn route can linger there.
func requireExportsSettled(t *testing.T, n *Network) {
	t.Helper()
	if q := n.PendingEvents(); q != 0 {
		t.Fatalf("requireExportsSettled on a busy network: %d events queued", q)
	}
	for _, id := range n.Speakers() {
		s := n.Speaker(id)
		if s.Collector {
			continue
		}
		for _, p := range s.exportablePrefixes() {
			for _, ss := range s.sessions {
				nb, pc := ss.nbID, ss.pc
				if pc.down {
					continue
				}
				var want *Route
				if ann, ok := n.exportRoute(s, p, pc, s.Best(p)); ok {
					want = &ann
				}
				if got := s.AdjOut(p, nb); !announcementEqual(got, want) {
					t.Fatalf("speaker %d → %d, %s: adj-RIB-out %s, but the export now is %s",
						id, nb, p, routeSig(got), routeSig(want))
				}
				rcv := n.Speaker(nb)
				if want == nil || importDrops(rcv, rcv.Peer(id), want) {
					continue
				}
				if got := rcv.AdjIn(p, id); got == nil || !got.Path.Equal(want.Path) {
					t.Fatalf("speaker %d → %d, %s: the neighbour holds %s, but the session carries %s",
						id, nb, p, routeSig(got), routeSig(want))
				}
			}
		}
	}
}

// importDrops mirrors applyImport's filters: receiver-side loop
// detection, then the session's and the speaker's import filter on a
// copy classified as the session classifies.
func importDrops(s *Speaker, pc *PeerConfig, ann *Route) bool {
	if ann.Path.Contains(s.AS) {
		return true
	}
	filtered := *ann
	filtered.Class = pc.ClassifyAs
	return pc.ImportDeny != nil && pc.ImportDeny(&filtered) || s.importDeny != nil && s.importDeny(&filtered)
}

// TestPropertyPrependMonotonic: at equal localpref, adding prepends to
// a route never makes it preferred over a route it did not already
// beat. Checked pairwise over random routes and then end-to-end on a
// diamond topology where one leg's prepending is swept upward.
func TestPropertyPrependMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(11)) // #nosec test randomness
	for i := 0; i < 5000; i++ {
		a, x := randomRoute(rng), randomRoute(rng)
		x.LocalPref = a.LocalPref // the property only claims equal-localpref monotonicity
		base, _ := Compare(a, x)
		for k := 1; k <= 3; k++ {
			got, _ := Compare(prepended(a, k), x)
			if got < base {
				t.Fatalf("prepending improved preference: Compare(a,x)=%d but Compare(a+%dprep,x)=%d\na=%s\nx=%s",
					base, k, got, routeSig(a), routeSig(x))
			}
			base = got // monotone in k too
		}
	}

	// End-to-end: speaker 1 hears 4's prefix via 2 and via 3; sweep
	// prepends on the 4→3 session upward. "Best is via 3" must be
	// monotonically non-increasing in the prepend count.
	p := netutil.MustParsePrefix("203.0.113.0/24")
	wasVia3 := true
	for k := 0; k <= 4; k++ {
		net := NewNetwork()
		for i := 1; i <= 4; i++ {
			net.AddSpeaker(RouterID(i), asn.AS(100+i), "")
		}
		cust := func(provider, c RouterID, prepend int) {
			net.Connect(provider, c,
				PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer)},
				PeerConfig{ClassifyAs: ClassProvider, ImportLocalPref: LocalPrefProvider, ExportAllow: GaoRexfordExport(ClassProvider), ExportPrepend: prepend})
		}
		cust(1, 2, 0)
		cust(1, 3, 0)
		cust(2, 4, 0)
		cust(3, 4, k)
		net.SetReferenceScan(k%2 == 0) // alternate engine and reference: the property holds in both
		net.Originate(4, p)
		net.RunToQuiescence()
		requireExportsSettled(t, net)
		via3 := net.Speaker(1).Best(p) != nil && net.Speaker(1).Best(p).From == 3
		if via3 && !wasVia3 {
			t.Fatalf("prepend sweep k=%d flipped the best path back toward the prepended leg", k)
		}
		wasVia3 = via3
	}
	if wasVia3 {
		t.Error("4 prepends on one leg of an otherwise symmetric diamond still won")
	}
}

// TestPropertyLocalPrefDominance: a strictly higher localpref wins no
// matter what the other attributes say — the paper's core routing
// policy assumption, checked over random attribute combinations.
func TestPropertyLocalPrefDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(13)) // #nosec test randomness
	for i := 0; i < 5000; i++ {
		hi, lo := randomRoute(rng), randomRoute(rng)
		hi.LocalPref = 100 + uint32(rng.Intn(5))*100
		lo.LocalPref = hi.LocalPref - uint32(1+rng.Intn(int(hi.LocalPref)-1))
		if c, step := Compare(hi, lo); c >= 0 || step != ByLocalPref {
			t.Fatalf("higher localpref did not dominate: Compare=%d step=%v\nhi=%s\nlo=%s",
				c, step, routeSig(hi), routeSig(lo))
		}
		// And through Best, in any position.
		cands := []*Route{lo, randomRoute(rng), hi}
		for _, c := range cands {
			if c != hi && c.LocalPref >= hi.LocalPref {
				c.LocalPref = lo.LocalPref
			}
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		if best, _ := Best(cands); best.LocalPref != hi.LocalPref {
			t.Fatalf("Best picked localpref %d over available %d", best.LocalPref, hi.LocalPref)
		}
	}
}

// ribSignature is networkSignature minus message/churn/timing detail:
// just the semantic content of every RIB, with LearnedAt masked. This
// is the right notion of state for order-independence, where event
// interleaving (and hence install times) legitimately varies.
func ribSignature(n *Network) string {
	var b strings.Builder
	mask := func(r *Route) string {
		if r == nil {
			return "-"
		}
		c := *r
		c.LearnedAt = 0
		return routeSig(&c)
	}
	for _, id := range n.Speakers() {
		s := n.Speaker(id)
		fmt.Fprintf(&b, "speaker %d\n", id)
		s.locRib.WalkSorted(func(k ribKey, r *Route) bool {
			fmt.Fprintf(&b, "  best %s: %s\n", k.prefix, mask(r))
			return true
		})
		s.adjOut.WalkSorted(func(k ribKey, r *Route) bool {
			fmt.Fprintf(&b, "  out %s/%d: %s\n", k.prefix, k.neighbor, mask(r))
			return true
		})
	}
	return b.String()
}

// TestPropertyOrderIndependence: a batch of prepend updates touching
// pairwise-distinct prefixes commutes — any application order (and
// either engine mode) converges to the same RIB.
func TestPropertyOrderIndependence(t *testing.T) {
	type setOp struct {
		router, nb RouterID
		prefix     netutil.Prefix
		k          int
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed * 104729)) // #nosec test randomness
		size := 8 + rng.Intn(15)
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
		build := func(incremental bool) *Network {
			net := randomGaoRexfordNetwork(rand.New(rand.NewSource(seed)), size) // #nosec test randomness
			net.SetReferenceScan(!incremental)
			for i, p := range prefixes {
				net.Originate(origins[i], p)
			}
			net.RunToQuiescence()
			return net
		}

		// One op per prefix — distinct prefixes is what makes the batch
		// commute (ops on one prefix do not commute with each other).
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
		want := apply(build(false), ref)
		for trial := 0; trial < 4; trial++ {
			perm := append([]int(nil), ref...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			incremental := trial%2 == 0
			if got := apply(build(incremental), perm); got != want {
				t.Fatalf("seed %d: permutation %v (incremental=%v) converged differently:\n--- reference ---\n%s\n--- permuted ---\n%s",
					seed, perm, incremental, want, got)
			}
		}
	}
}

// TestPropertyDirtySetBounded: the dirty queue is a set — no key is
// ever resident twice — so queued work is bounded by live
// (router, prefix, neighbor) tuples regardless of how many times a
// batch touches them.
func TestPropertyDirtySetBounded(t *testing.T) {
	_, inc := incPair(3, 10)
	p := netutil.MustParsePrefix("203.0.113.0/24")
	inc.Originate(1, p)
	inc.RunToQuiescence()
	nb := inc.Speaker(1).Peers()[0]
	base := inc.Stats().DirtyPairs
	inc.Batch(func() {
		for i := 0; i < 50; i++ {
			inc.SetPrefixPrepend(1, nb, p, i%4)
		}
		if got := inc.Stats().DirtyPairs - base; got != 1 {
			t.Errorf("50 touches of one pair enqueued %d dirty pairs, want 1", got)
		}
		if len(inc.dirtyQueue) != len(inc.dirtySet) {
			t.Errorf("dirty queue (%d) and set (%d) disagree", len(inc.dirtyQueue), len(inc.dirtySet))
		}
	})
	inc.RunToQuiescence()
	requireExportsSettled(t, inc)
}
