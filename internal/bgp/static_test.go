package bgp

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// randomGaoRexfordNetwork builds a random valley-free economy: a DAG
// of provider->customer edges plus random peerings between
// same-"tier" nodes, all with conventional localprefs.
func randomGaoRexfordNetwork(rng *rand.Rand, n int) *Network {
	return growGaoRexford(NewNetwork(), rng, n)
}

// growGaoRexford populates an empty (but possibly pre-configured,
// e.g. SetCompactRIB) network with the random topology.
func growGaoRexford(net *Network, rng *rand.Rand, n int) *Network {
	for i := 1; i <= n; i++ {
		net.AddSpeaker(RouterID(i), asn.AS(1000+i), "")
	}
	cust := func(provider, c RouterID) {
		net.Connect(provider, c,
			PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer)},
			PeerConfig{ClassifyAs: ClassProvider, ImportLocalPref: LocalPrefProvider, ExportAllow: GaoRexfordExport(ClassProvider), ExportPrepend: rng.Intn(3)})
	}
	peerCfg := PeerConfig{ClassifyAs: ClassPeer, ImportLocalPref: LocalPrefPeer, ExportAllow: GaoRexfordExport(ClassPeer)}
	// Node 1..k are "core"; everyone else picks 1-2 providers with a
	// lower index (guaranteeing an acyclic provider graph).
	k := 2 + rng.Intn(3)
	for i := 2; i <= k; i++ {
		net.Connect(RouterID(i-1), RouterID(i), peerCfg, peerCfg)
	}
	for i := k + 1; i <= n; i++ {
		p1 := 1 + rng.Intn(i-1)
		cust(RouterID(p1), RouterID(i))
		if rng.Intn(2) == 0 {
			p2 := 1 + rng.Intn(i-1)
			if p2 != p1 {
				cust(RouterID(p2), RouterID(i))
			}
		}
	}
	// Sprinkle lateral peerings between non-adjacent nodes.
	for t := 0; t < n/3; t++ {
		a := RouterID(1 + rng.Intn(n))
		b := RouterID(1 + rng.Intn(n))
		if a == b || net.Speaker(a).Peer(b) != nil {
			continue
		}
		net.Connect(a, b, peerCfg, peerCfg)
	}
	return net
}

// TestEngineMatchesSolverOnRandomTopologies is the central equivalence
// property: for random Gao-Rexford networks and random originations,
// the event-driven engine and the worklist fixpoint solver converge to
// the same best paths (age-based ties excluded by construction: a
// single announcement wave gives deterministic arrival order, and both
// sides fall through to router ID when older-route ties cannot occur).
func TestEngineMatchesSolverOnRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(2024)) // #nosec test randomness
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(20)
		net := randomGaoRexfordNetwork(rng, n)
		p := netutil.MustParsePrefix("203.0.113.0/24")
		origin := RouterID(1 + rng.Intn(n))

		res := net.SolveStatic(p, []StaticOrigin{{Speaker: origin}})
		if !res.Converged {
			t.Fatalf("trial %d: solver did not converge", trial)
		}
		net.Originate(origin, p)
		net.RunToQuiescence()

		for _, id := range net.Speakers() {
			eng := net.Speaker(id).Best(p)
			st := res.Best(id)
			switch {
			case eng == nil && st == nil:
			case eng == nil || st == nil:
				t.Fatalf("trial %d speaker %d: engine=%v solver=%v", trial, id, eng, st)
			default:
				// Both must agree on the decisive attributes. Exact
				// path equality can differ on age-tied candidates, so
				// require localpref and length equality, and identical
				// paths whenever no tie was possible.
				if eng.LocalPref != st.LocalPref || eng.Path.Len() != st.Path.Len() {
					t.Fatalf("trial %d speaker %d: engine=%v solver=%v", trial, id, eng, st)
				}
			}
		}
	}
}

// TestAllPathsValleyFree checks the Gao-Rexford invariant end to end:
// every selected path in random networks is valley-free (once a path
// crosses a peer or provider edge, it never goes back up).
func TestAllPathsValleyFree(t *testing.T) {
	rng := rand.New(rand.NewSource(55)) // #nosec test randomness
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(15)
		net := randomGaoRexfordNetwork(rng, n)
		p := netutil.MustParsePrefix("203.0.113.0/24")
		origin := RouterID(1 + rng.Intn(n))
		net.Originate(origin, p)
		net.RunToQuiescence()

		for _, id := range net.Speakers() {
			best := net.Speaker(id).Best(p)
			if best == nil || best.From == 0 {
				continue
			}
			// Walk the forwarding chain toward the origin. Each hop's
			// import class constrains the next: a speaker that
			// imported from a customer or peer can (by Gao-Rexford
			// exports) only be followed by customer imports, so the
			// valid class sequence in walk order is
			// Provider* Peer? Customer*.
			cur := id
			downhill := false // saw a Customer or Peer import
			for {
				r := net.Speaker(cur).Best(p)
				if r == nil || r.From == 0 {
					break
				}
				switch r.Class {
				case ClassProvider:
					if downhill {
						t.Fatalf("trial %d: valley at speaker %d (provider import after downhill turn)", trial, cur)
					}
				case ClassPeer, ClassREPeer:
					if downhill {
						t.Fatalf("trial %d: second lateral edge at speaker %d", trial, cur)
					}
					downhill = true
				case ClassCustomer:
					downhill = true
				}
				cur = r.From
			}
		}
	}
}

func TestSolveStaticUnknownSpeakerPanics(t *testing.T) {
	net := NewNetwork()
	net.AddSpeaker(1, 1, "only")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown origin speaker")
		}
	}()
	net.SolveStatic(netutil.MustParsePrefix("10.0.0.0/8"), []StaticOrigin{{Speaker: 99}})
}

func TestExportViewNilCases(t *testing.T) {
	net := NewNetwork()
	net.AddSpeaker(1, 100, "a")
	net.AddSpeaker(2, 200, "b")
	net.Connect(1, 2, bgp2custCfg(), bgp2provCfg())
	p := netutil.MustParsePrefix("10.0.0.0/8")
	res := net.SolveStatic(p, []StaticOrigin{{Speaker: 2}})
	if v := net.ExportView(res, 99, 1); v != nil {
		t.Error("unknown speaker should yield nil view")
	}
	if v := net.ExportView(res, 1, 99); v != nil {
		t.Error("unknown target should yield nil view")
	}
	if v := net.ExportView(res, 2, 1); v == nil || v.Path.Origin() != 200 {
		t.Errorf("ExportView = %v, want origin 200", v)
	}
}

func TestSolverDetectsDispute(t *testing.T) {
	// The solver must hit the round cap and report non-convergence
	// rather than hang, and hand back the partial result.
	res := disputeWheel().SolveStatic(netutil.MustParsePrefix("198.51.100.0/24"), []StaticOrigin{{Speaker: 4}})
	if res.Converged || res.Rounds != maxStaticRounds {
		t.Fatalf("dispute wheel: converged=%v after %d rounds, want non-convergence at the %d-round cap",
			res.Converged, res.Rounds, maxStaticRounds)
	}
	if res.Best(4) == nil || res.Best(1) == nil {
		t.Fatal("non-converged solve returned no partial result")
	}
}

// TestSolveStaticConcurrentCold is the ComputeOriginViews access
// pattern: many goroutines solve on a freshly built network whose
// adjacency index nobody has built yet, so they race to build it. Every
// result must equal the serial solve of the same origin; run under
// -race this is also the data-race check on the index.
func TestSolveStaticConcurrentCold(t *testing.T) {
	const n = 40
	build := func() *Network {
		return randomGaoRexfordNetwork(rand.New(rand.NewSource(7)), n) // #nosec test randomness
	}
	p := netutil.MustParsePrefix("203.0.113.0/24")
	serialNet := build()
	serial := make([]*StaticResult, n)
	for i := range serial {
		serial[i] = serialNet.SolveStatic(p, []StaticOrigin{{Speaker: RouterID(i + 1)}})
	}

	cold := build()
	got := make([]*StaticResult, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = cold.SolveStatic(p, []StaticOrigin{{Speaker: RouterID(i + 1)}})
		}(i)
	}
	wg.Wait()

	for i, want := range serial {
		if got[i].Converged != want.Converged || got[i].Rounds != want.Rounds {
			t.Fatalf("origin %d: concurrent solve converged=%v in %d rounds, serial converged=%v in %d",
				i+1, got[i].Converged, got[i].Rounds, want.Converged, want.Rounds)
		}
		for _, id := range cold.Speakers() {
			if g, w := got[i].Best(id), want.Best(id); !routesEqual(g, w) {
				t.Errorf("origin %d speaker %d: concurrent %v, serial %v", i+1, id, g, w)
			}
		}
	}
}

// TestStaticSolverAllocs is the solver's allocation ceiling: on a
// network without policy callbacks or import filters nothing demands a
// *Route, so a warmed solver allocates its StaticResult and no more.
func TestStaticSolverAllocs(t *testing.T) {
	const n = 300
	net := randomGaoRexfordNetwork(rand.New(rand.NewSource(42)), n) // #nosec test randomness
	p := netutil.MustParsePrefix("203.0.113.0/24")
	sv := net.NewStaticSolver()
	origin := 0
	solve := func() {
		origin++
		if res := sv.Solve(p, []StaticOrigin{{Speaker: RouterID(1 + origin%n)}}); !res.Converged {
			t.Fatal("did not converge")
		}
	}
	for i := 0; i < n; i++ {
		solve() // grow the cell slab and the batches to their largest
	}
	if got := testing.AllocsPerRun(n, solve); got > 2 {
		t.Fatalf("warmed StaticSolver.Solve allocates %.1f times per solve, want <= 2", got)
	} else {
		t.Logf("allocs per warmed solve = %.1f", got)
	}
}

// TestAppendExportPathAllocs: reading every session's export path of
// a solve into a buffer that has grown to hold them all allocates
// nothing on a network without policy callbacks, by session into a
// buffer and by export tap into a tree alike.
func TestAppendExportPathAllocs(t *testing.T) {
	const n = 300
	net := randomGaoRexfordNetwork(rand.New(rand.NewSource(42)), n) // #nosec test randomness
	sv := net.NewStaticSolver()
	var all []ExportTap
	for _, from := range net.Speakers() {
		for _, to := range net.Speaker(from).Peers() {
			all = append(all, ExportTap{From: from, To: to})
		}
	}
	sv.SetExportTaps(all)
	res := sv.Solve(netutil.MustParsePrefix("203.0.113.0/24"), []StaticOrigin{{Speaker: 7}})
	var (
		buf  asn.Path
		tree asn.PathTree
	)
	sessions := 0
	for _, tc := range []struct {
		name string
		read func(k int) bool
	}{
		{"AppendExportPath", func(k int) (ok bool) {
			buf, ok = net.AppendExportPath(buf, res, all[k].From, all[k].To)
			return ok
		}},
		{"AddTapLeaf", func(k int) bool {
			if k == 0 {
				tree.Reset()
			}
			return res.AddTapLeaf(&tree, k)
		}},
	} {
		readAll := func() {
			buf, sessions = buf[:0], 0
			for k := range all {
				if tc.read(k) {
					sessions++
				}
			}
		}
		readAll() // grow the buffer
		if got := testing.AllocsPerRun(10, readAll); got != 0 {
			t.Fatalf("warmed %s over %d sessions allocates %.1f times, want 0", tc.name, sessions, got)
		}
		t.Logf("%s: %d sessions exported %d ASes into one buffer, %d runs into one tree, 0 allocations", tc.name, sessions, len(buf), tree.Runs())
	}
}

// TestStaticResultStaleReadPanics: a result borrows its solver, so
// reading it after the solver's next Solve must fail loudly rather
// than answer for another prefix.
func TestStaticResultStaleReadPanics(t *testing.T) {
	net := randomGaoRexfordNetwork(rand.New(rand.NewSource(7)), 12) // #nosec test randomness
	sv := net.NewStaticSolver()
	first := sv.Solve(netutil.MustParsePrefix("203.0.113.0/24"), []StaticOrigin{{Speaker: 1}})
	second := sv.Solve(netutil.MustParsePrefix("198.51.100.0/24"), []StaticOrigin{{Speaker: 2}})
	if second.Best(2) == nil {
		t.Fatal("current result has no route at its origin")
	}
	for name, read := range map[string]func(){
		"Best":       func() { first.Best(1) },
		"ExportView": func() { net.ExportView(first, 1, net.Speaker(1).Peers()[0]) },
		"AppendExportPath": func() {
			net.AppendExportPath(nil, first, 1, net.Speaker(1).Peers()[0])
		},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "StaticResult read after its StaticSolver's next Solve") {
					t.Errorf("%s on a stale result: recovered %q, want a panic naming the misuse", name, msg)
				}
			}()
			read()
		}()
	}
}
