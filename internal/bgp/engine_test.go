package bgp

import (
	"testing"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// figure1Network builds the paper's Figure 1 scenario:
//
//	UCSD (7377) —customer→ CENIC (2152)
//	CENIC —customer→ Internet2 (11537)      [R&E]
//	CENIC —customer→ Lumen... simplified: CENIC —customer→ Cogent? No:
//	CENIC is also a customer of Level3 (3356) for commodity.
//	Internet2 —participant→ NYSERNet (3754) ... NYSERNet —→ Columbia (14)
//	Cogent (174) —provider→ Columbia (14); Cogent peers with 3356.
//
// Columbia receives routes to UCSD prefixes via NYSERNet (R&E, path
// 3754 11537 2152 7377) and via Cogent (commodity, path
// 174 3356 2152 7377) — equal lengths, so only localpref makes the
// R&E choice deterministic.
type figure1 struct {
	net *Network
	// router IDs
	ucsd, cenic, internet2, nysernet, columbia, cogent, level3 RouterID
}

func buildFigure1(columbiaREPref uint32) *figure1 {
	f := &figure1{net: NewNetwork()}
	ids := map[string]struct {
		id RouterID
		as asn.AS
	}{
		"UCSD":      {1, 7377},
		"CENIC":     {2, 2152},
		"Internet2": {3, 11537},
		"NYSERNet":  {4, 3754},
		"Columbia":  {5, 14},
		"Cogent":    {6, 174},
		"Level3":    {7, 3356},
	}
	for name, v := range ids {
		f.net.AddSpeaker(v.id, v.as, name)
	}
	f.ucsd, f.cenic, f.internet2 = 1, 2, 3
	f.nysernet, f.columbia, f.cogent, f.level3 = 4, 5, 6, 7

	cust := func(provider, customer RouterID) {
		f.net.Connect(provider, customer,
			PeerConfig{ // at provider, about customer
				ClassifyAs:      ClassCustomer,
				ImportLocalPref: LocalPrefCustomer,
				ExportAllow:     GaoRexfordExport(ClassCustomer),
			},
			PeerConfig{ // at customer, about provider
				ClassifyAs:      ClassProvider,
				ImportLocalPref: LocalPrefProvider,
				ExportAllow:     GaoRexfordExport(ClassProvider),
			})
	}
	// R&E chain: UCSD ← CENIC ← Internet2 ← NYSERNet ← Columbia.
	cust(f.cenic, f.ucsd)
	cust(f.internet2, f.cenic)
	cust(f.nysernet, f.columbia)
	// NYSERNet and CENIC are Internet2 participants (customers in the
	// routing sense).
	cust(f.internet2, f.nysernet)
	// Commodity: CENIC ← Level3, Level3 — Cogent peering,
	// Columbia ← Cogent.
	cust(f.level3, f.cenic)
	f.net.Connect(f.level3, f.cogent,
		PeerConfig{ClassifyAs: ClassPeer, ImportLocalPref: LocalPrefPeer, ExportAllow: GaoRexfordExport(ClassPeer)},
		PeerConfig{ClassifyAs: ClassPeer, ImportLocalPref: LocalPrefPeer, ExportAllow: GaoRexfordExport(ClassPeer)})
	// Columbia's session with Cogent (its commodity provider) with the
	// configurable import localpref, and with NYSERNet (its R&E path).
	f.net.Connect(f.cogent, f.columbia,
		PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer)},
		PeerConfig{ClassifyAs: ClassProvider, ImportLocalPref: LocalPrefProvider, ExportAllow: GaoRexfordExport(ClassProvider)})
	// Override Columbia's localpref toward NYSERNet: columbiaREPref.
	colNY := f.net.Speaker(f.columbia).Peer(f.nysernet)
	colNY.ImportLocalPref = columbiaREPref
	return f
}

var ucsdPrefix = netutil.MustParsePrefix("132.239.0.0/16")

func TestFigure1LocalPrefSelectsRE(t *testing.T) {
	// Columbia assigns a higher localpref to NYSERNet: it must select
	// the R&E route despite equal AS path lengths.
	f := buildFigure1(LocalPrefProvider + 20)
	f.net.Originate(f.ucsd, ucsdPrefix)
	f.net.RunToQuiescence()

	best := f.net.Speaker(f.columbia).Best(ucsdPrefix)
	if best == nil {
		t.Fatal("Columbia has no route to UCSD")
	}
	wantRE := asn.MustParsePath("3754 11537 2152 7377")
	wantComm := asn.MustParsePath("174 3356 2152 7377")
	// Sanity: both routes available, equal length.
	adj := f.net.Speaker(f.columbia).AdjInAll(ucsdPrefix)
	if len(adj) != 2 {
		t.Fatalf("Columbia has %d routes, want 2: %v", len(adj), adj)
	}
	var sawRE, sawComm bool
	for _, r := range adj {
		if r.Path.Equal(wantRE) {
			sawRE = true
		}
		if r.Path.Equal(wantComm) {
			sawComm = true
		}
	}
	if !sawRE || !sawComm {
		t.Fatalf("expected both Figure 1 paths, got %v", adj)
	}
	if !best.Path.Equal(wantRE) {
		t.Errorf("Columbia best = %v, want R&E path %v", best.Path, wantRE)
	}
}

func TestFigure1EqualLocalPrefTieBreaks(t *testing.T) {
	// With equal localpref the equal-length paths tie-break beyond
	// path length; crucially the choice is no longer policy-determined.
	f := buildFigure1(LocalPrefProvider)
	f.net.Originate(f.ucsd, ucsdPrefix)
	f.net.RunToQuiescence()
	best := f.net.Speaker(f.columbia).Best(ucsdPrefix)
	if best == nil {
		t.Fatal("Columbia has no route")
	}
	adj := f.net.Speaker(f.columbia).AdjInAll(ucsdPrefix)
	if len(adj) != 2 || adj[0].Path.Len() != adj[1].Path.Len() {
		t.Fatalf("want two equal-length candidates, got %v", adj)
	}
	if adj[0].LocalPref != adj[1].LocalPref {
		t.Fatalf("localprefs differ: %v", adj)
	}
}

func TestValleyFree(t *testing.T) {
	// Gao-Rexford export must prevent CENIC's provider routes from
	// reaching Internet2 (no valley paths): Internet2 must not learn a
	// route to a prefix originated by Cogent via its customer CENIC.
	f := buildFigure1(LocalPrefProvider)
	cogentPrefix := netutil.MustParsePrefix("38.0.0.0/8")
	f.net.Originate(f.cogent, cogentPrefix)
	f.net.RunToQuiescence()
	// CENIC learns it from Level3 (its provider).
	if f.net.Speaker(f.cenic).Best(cogentPrefix) == nil {
		t.Fatal("CENIC should reach Cogent's prefix via Level3")
	}
	// Internet2 must not hear it from CENIC (provider route). It has
	// no other path in this topology.
	if r := f.net.Speaker(f.internet2).Best(cogentPrefix); r != nil {
		t.Errorf("valley path leaked to Internet2: %v", r)
	}
}

func TestWithdrawPropagates(t *testing.T) {
	f := buildFigure1(LocalPrefProvider + 20)
	f.net.Originate(f.ucsd, ucsdPrefix)
	f.net.RunToQuiescence()
	if f.net.Speaker(f.columbia).Best(ucsdPrefix) == nil {
		t.Fatal("no route before withdraw")
	}
	f.net.WithdrawOrigination(f.ucsd, ucsdPrefix)
	f.net.RunToQuiescence()
	if r := f.net.Speaker(f.columbia).Best(ucsdPrefix); r != nil {
		t.Errorf("route survived withdrawal: %v", r)
	}
	for _, id := range f.net.Speakers() {
		if r := f.net.Speaker(id).Best(ucsdPrefix); r != nil && r.From != 0 {
			t.Errorf("speaker %d kept stale route %v", id, r)
		}
	}
}

func TestSetExportPrependLengthensPath(t *testing.T) {
	f := buildFigure1(LocalPrefProvider)
	f.net.Originate(f.ucsd, ucsdPrefix)
	f.net.RunToQuiescence()

	// UCSD prepends 3 extra copies toward CENIC; every downstream path
	// grows by 3.
	before := f.net.Speaker(f.columbia).AdjIn(ucsdPrefix, f.nysernet)
	if before == nil {
		t.Fatal("no R&E route before prepend")
	}
	f.net.SetExportPrepend(f.ucsd, f.cenic, 3)
	f.net.RunToQuiescence()
	after := f.net.Speaker(f.columbia).AdjIn(ucsdPrefix, f.nysernet)
	if after == nil {
		t.Fatal("no R&E route after prepend")
	}
	if after.Path.Len() != before.Path.Len()+3 {
		t.Errorf("path length %d, want %d", after.Path.Len(), before.Path.Len()+3)
	}
	if after.Path.PrependCount() != 3 {
		t.Errorf("PrependCount = %d, want 3", after.Path.PrependCount())
	}
	// Setting the same value again must be a silent no-op.
	ev := f.net.EventsProcessed()
	f.net.SetExportPrepend(f.ucsd, f.cenic, 3)
	f.net.RunToQuiescence()
	if f.net.EventsProcessed() != ev {
		t.Error("re-setting identical prepend generated updates")
	}
}

func TestRouteAgeTieBreak(t *testing.T) {
	// Two providers announce the same prefix with equal-length paths
	// and equal localpref; the route learned first must win, and a
	// re-announcement (attribute change) must reset its age.
	net := NewNetwork()
	net.AddSpeaker(1, 100, "dst")
	net.AddSpeaker(2, 200, "provA")
	net.AddSpeaker(3, 300, "provB")
	net.AddSpeaker(4, 400, "origin")
	flat := PeerConfig{ClassifyAs: ClassProvider, ImportLocalPref: LocalPrefProvider, ExportAllow: GaoRexfordExport(ClassProvider)}
	custUp := PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer)}
	net.Connect(2, 1, custUp, flat)
	net.Connect(3, 1, custUp, flat)
	net.Connect(4, 2, flat, custUp) // origin is customer of provA
	net.Connect(4, 3, flat, custUp) // and of provB
	// Make provA's path slower to arrive.
	net.Speaker(2).Peer(1).Delay = 10
	net.Speaker(3).Peer(1).Delay = 1

	p := netutil.MustParsePrefix("192.0.2.0/24")
	net.Originate(4, p)
	net.RunToQuiescence()

	best := net.Speaker(1).Best(p)
	if best == nil {
		t.Fatal("no route")
	}
	if best.From != 3 {
		t.Fatalf("best from %d, want 3 (older route)", best.From)
	}
	// provB's route is re-announced with a prepend, then reverted: the
	// age resets both times, so provA's untouched route becomes oldest
	// once its path is equal-length again.
	net.AdvanceTo(net.Now() + 3600)
	net.SetExportPrepend(3, 1, 1)
	net.RunToQuiescence()
	if best = net.Speaker(1).Best(p); best.From != 2 {
		t.Fatalf("after prepend, best from %d, want 2 (shorter path)", best.From)
	}
	net.AdvanceTo(net.Now() + 3600)
	net.SetExportPrepend(3, 1, 0)
	net.RunToQuiescence()
	if best = net.Speaker(1).Best(p); best.From != 2 {
		t.Errorf("after revert, best from %d, want 2 (now the older route)", best.From)
	}
}

func TestForwardPath(t *testing.T) {
	f := buildFigure1(LocalPrefProvider + 20)
	f.net.Originate(f.ucsd, ucsdPrefix)
	f.net.RunToQuiescence()
	path, ok := f.net.ForwardPath(f.columbia, ucsdPrefix)
	if !ok {
		t.Fatalf("ForwardPath failed: %v", path)
	}
	want := []RouterID{f.columbia, f.nysernet, f.internet2, f.cenic, f.ucsd}
	if len(path) != len(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	for i := range path {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
	// A speaker with no route.
	net2 := NewNetwork()
	net2.AddSpeaker(1, 1, "lonely")
	if _, ok := net2.ForwardPath(1, ucsdPrefix); ok {
		t.Error("ForwardPath should fail with no route")
	}
	// A forwarding cycle: two speakers whose best routes point at each
	// other, installed by hand because no converged network holds one.
	// The walk must end and report failure.
	loop := NewNetwork()
	a := loop.AddSpeaker(1, 1, "a")
	b := loop.AddSpeaker(2, 2, "b")
	a.locRib.Install(locKey(ucsdPrefix), &Route{Prefix: ucsdPrefix, From: 2})
	b.locRib.Install(locKey(ucsdPrefix), &Route{Prefix: ucsdPrefix, From: 1})
	if path, ok := loop.ForwardPath(1, ucsdPrefix); ok {
		t.Errorf("ForwardPath on a cycle = %v, true", path)
	}
	if path, ok := loop.ForwardPathLPM(2, ucsdPrefix); ok {
		t.Errorf("ForwardPathLPM on a cycle = %v, true", path)
	}
}

func TestCollectorRecordsChurn(t *testing.T) {
	f := buildFigure1(LocalPrefProvider)
	// Attach a collector to Cogent.
	col := f.net.AddSpeaker(99, 65000, "collector")
	col.Collector = true
	f.net.Connect(f.cogent, 99,
		PeerConfig{ClassifyAs: ClassPeer, ExportAllow: NewClassSet(ClassOwn, ClassCustomer, ClassPeer, ClassProvider)},
		PeerConfig{ClassifyAs: ClassPeer, ExportAllow: NewClassSet()})
	f.net.Originate(f.ucsd, ucsdPrefix)
	f.net.RunToQuiescence()

	if len(f.net.Churn.Records) == 0 {
		t.Fatal("collector saw no updates")
	}
	last := f.net.Churn.Records[len(f.net.Churn.Records)-1]
	if !last.Announce || last.Prefix != ucsdPrefix {
		t.Errorf("unexpected record %+v", last)
	}
	if last.PeerAS != 174 {
		t.Errorf("collector peer AS = %v, want 174", last.PeerAS)
	}
	if last.Path.Origin() != 7377 {
		t.Errorf("collected path %v should originate at 7377", last.Path)
	}
	// Collectors must not re-export: UCSD must not see a route via the
	// collector (it has no session, but also the collector must hold
	// but not propagate).
	if got := f.net.Speaker(99).Best(ucsdPrefix); got == nil {
		t.Error("collector should still select a best route locally")
	}
}

func TestStaticMatchesEngine(t *testing.T) {
	// The fixpoint solver and the event engine must agree on converged
	// best routes (modulo age-based ties, absent here).
	f := buildFigure1(LocalPrefProvider + 20)
	f.net.Originate(f.ucsd, ucsdPrefix)
	f.net.RunToQuiescence()

	res := f.net.SolveStatic(ucsdPrefix, []StaticOrigin{{Speaker: f.ucsd}})
	if !res.Converged {
		t.Fatal("static solver did not converge")
	}
	for _, id := range f.net.Speakers() {
		eng := f.net.Speaker(id).Best(ucsdPrefix)
		st := res.Best(id)
		switch {
		case eng == nil && st == nil:
		case eng == nil || st == nil:
			t.Errorf("speaker %d: engine=%v static=%v", id, eng, st)
		case !eng.Path.Equal(st.Path) || eng.LocalPref != st.LocalPref:
			t.Errorf("speaker %d: engine=%v static=%v", id, eng, st)
		}
	}
}

func TestStaticTwoOrigins(t *testing.T) {
	// Anycast-style: the measurement prefix originated both at UCSD
	// (stand-in R&E origin) and Cogent (stand-in commodity origin).
	f := buildFigure1(LocalPrefProvider + 20)
	p := netutil.MustParsePrefix("163.253.63.0/24")
	res := f.net.SolveStatic(p, []StaticOrigin{{Speaker: f.ucsd}, {Speaker: f.cogent}})
	if !res.Converged {
		t.Fatal("no convergence")
	}
	// Columbia prefers the R&E side (higher localpref via NYSERNet).
	best := res.Best(f.columbia)
	if best == nil {
		t.Fatal("Columbia unrouted")
	}
	if best.Path.Origin() != 7377 {
		t.Errorf("Columbia chose origin %v, want 7377 (R&E)", best.Path.Origin())
	}
	// Level3 hears the UCSD origination from its customer CENIC (a
	// Gao-Rexford-legal export) and prefers the customer route over
	// its peer route from Cogent.
	if b := res.Best(f.level3); b == nil || b.Path.Origin() != 7377 || b.Class != ClassCustomer {
		t.Errorf("Level3 best = %v, want customer route to 7377", b)
	}
	// Cogent itself originates the prefix, so its own route wins
	// locally regardless of what Level3 tells it.
	if b := res.Best(f.cogent); b == nil || b.Class != ClassOwn {
		t.Errorf("Cogent best = %v, want its own origination", b)
	}
}

func TestDuplicateAnnouncementSuppressed(t *testing.T) {
	f := buildFigure1(LocalPrefProvider)
	f.net.Originate(f.ucsd, ucsdPrefix)
	f.net.RunToQuiescence()
	n := f.net.EventsProcessed()
	// Re-originating identically must not generate any updates.
	f.net.Originate(f.ucsd, ucsdPrefix)
	f.net.RunToQuiescence()
	if f.net.EventsProcessed() != n {
		t.Errorf("idempotent re-origination generated %d events", f.net.EventsProcessed()-n)
	}
}

func TestTimeClock(t *testing.T) {
	tests := []struct {
		t    Time
		want string
	}{
		{0, "00:00:00"},
		{59, "00:00:59"},
		{3600, "01:00:00"},
		{3723, "01:02:03"},
		{-60, "-00:01:00"},
	}
	for _, tt := range tests {
		if got := tt.t.Clock(); got != tt.want {
			t.Errorf("Clock(%d) = %q, want %q", tt.t, got, tt.want)
		}
	}
}

func TestClassSet(t *testing.T) {
	s := NewClassSet(ClassOwn, ClassCustomer)
	if !s.Has(ClassOwn) || !s.Has(ClassCustomer) || s.Has(ClassPeer) {
		t.Error("ClassSet membership wrong")
	}
	s2 := s.With(ClassPeer)
	if !s2.Has(ClassPeer) || s.Has(ClassPeer) {
		t.Error("With should not mutate receiver")
	}
	for c := RouteClass(0); c < numRouteClasses; c++ {
		if c.String() == "" {
			t.Errorf("class %d has empty String", c)
		}
	}
}

// RunTo delivers each event due by the target at its own time, leaves
// later ones queued, ends at the target even when the queue empties
// first, and never moves the clock backwards.
func TestRunTo(t *testing.T) {
	for _, compact := range []bool{false, true} {
		net := chainNetOn(compact)
		p := netutil.MustParsePrefix("192.0.2.0/24")
		net.Originate(1, p) // reaches 2 at t = 1, 3 at t = 2
		if n := net.RunTo(1); n != 1 {
			t.Fatalf("compact=%v: RunTo(1) processed %d events, want 1", compact, n)
		}
		if net.Now() != 1 || net.PendingEvents() != 1 || net.Speaker(3).Best(p) != nil {
			t.Fatalf("compact=%v: after RunTo(1): now %d, %d queued, edge route %v; want 1, 1, none",
				compact, net.Now(), net.PendingEvents(), net.Speaker(3).Best(p))
		}
		net.RunTo(100)
		if net.Now() != 100 || net.PendingEvents() != 0 {
			t.Fatalf("compact=%v: after RunTo(100): now %d, %d queued; want 100, 0",
				compact, net.Now(), net.PendingEvents())
		}
		for id, want := range map[RouterID]Time{2: 1, 3: 2} {
			if r := net.Speaker(id).Best(p); r == nil || r.LearnedAt != want {
				t.Fatalf("compact=%v: speaker %d holds %v, want the route learned at %d", compact, id, r, want)
			}
		}
		if n := net.RunTo(50); n != 0 || net.Now() != 100 {
			t.Fatalf("compact=%v: RunTo(50) processed %d, clock %d; want 0, 100", compact, n, net.Now())
		}
		net.WithdrawOrigination(1, p) // reaches 2 at t = 101
		net.RunTo(101)
		if net.Speaker(2).Best(p) != nil || net.Speaker(3).Best(p) == nil || net.PendingEvents() != 1 {
			t.Fatalf("compact=%v: after the withdrawal's first hop: middle %v, edge %v, %d queued",
				compact, net.Speaker(2).Best(p), net.Speaker(3).Best(p), net.PendingEvents())
		}
	}
}
