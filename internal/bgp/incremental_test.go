package bgp

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// This file is the engine-level differential harness for the decision
// path: every test builds two identical networks, makes one the
// full-scan reference (SetReferenceScan) and leaves the other on the
// engine, drives both through the same event sequence, and requires
// identical observable state.

// routeSig renders every decision-relevant route attribute (including
// LearnedAt: virtual timing must match across modes too).
func routeSig(r *Route) string {
	if r == nil {
		return "-"
	}
	return fmt.Sprintf("from=%d lp=%d med=%d org=%d cls=%d path=%v igp=%d at=%d ebgp=%v comm=%v",
		r.From, r.LocalPref, r.MED, r.Origin, r.Class, r.Path, r.IGPCost, r.LearnedAt, r.EBGP, r.Communities.Values())
}

// networkSignature captures all observable state: clock, message and
// churn totals, every churn record, and per speaker the loc-RIB,
// adj-RIB-in (with damping state), and adj-RIB-out.
func networkSignature(n *Network) string {
	var b strings.Builder
	fmt.Fprintf(&b, "clock=%d msgs=%d queued=%d\n", n.Now(), n.Churn.TotalMessages, n.queue.Len())
	for _, rec := range n.Churn.Records {
		fmt.Fprintf(&b, "churn at=%d col=%d peer=%d p=%s ann=%v path=%v\n",
			rec.At, rec.Collector, rec.PeerAS, rec.Prefix, rec.Announce, rec.Path)
	}
	for _, id := range n.Speakers() {
		s := n.Speaker(id)
		fmt.Fprintf(&b, "speaker %d\n", id)
		s.locRib.WalkSorted(func(k ribKey, r *Route) bool {
			fmt.Fprintf(&b, "  best %s: %s\n", k.prefix, routeSig(r))
			return true
		})
		s.adjIn.WalkSorted(func(k ribKey, r *Route) bool {
			fmt.Fprintf(&b, "  in %s/%d sup=%v: %s\n", k.prefix, k.neighbor, s.rfd[k].suppressed, routeSig(r))
			return true
		})
		s.adjOut.WalkSorted(func(k ribKey, r *Route) bool {
			fmt.Fprintf(&b, "  out %s/%d: %s\n", k.prefix, k.neighbor, routeSig(r))
			return true
		})
	}
	return b.String()
}

func sortRibKeys(keys []ribKey) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.prefix != b.prefix {
			return netutil.ComparePrefixes(a.prefix, b.prefix) < 0
		}
		return a.neighbor < b.neighbor
	})
}

// incPair builds two byte-identical random networks, the first the
// full-scan reference, each with one collector speaker attached so
// churn recording is exercised.
func incPair(seed int64, n int) (full, inc *Network) {
	build := func() *Network {
		rng := rand.New(rand.NewSource(seed)) // #nosec test randomness
		net := randomGaoRexfordNetwork(rng, n)
		col := net.AddSpeaker(RouterID(n+1), asn.AS(64500), "collector")
		col.Collector = true
		net.Connect(RouterID(1+rng.Intn(n)), col.ID,
			PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer)},
			PeerConfig{ClassifyAs: ClassProvider, ExportAllow: GaoRexfordExport(ClassProvider)})
		return net
	}
	full, inc = build(), build()
	full.SetReferenceScan(true)
	return full, inc
}

// incOp is one step of a replayable event sequence, applied to both
// networks of a differential pair.
type incOp func(*Network)

// randomOps derives a deterministic op sequence from rng against the
// given network size: prefix-prepend deltas, session-level prepend
// deltas, session flaps, and partial drains.
func randomOps(rng *rand.Rand, template *Network, prefixes []netutil.Prefix, nOps int) []incOp {
	ids := template.Speakers()
	var downA, downB RouterID // at most one session down at a time
	var ops []incOp
	for i := 0; i < nOps; i++ {
		dt := Time(1 + rng.Intn(50))
		switch rng.Intn(5) {
		case 0: // per-prefix prepend delta
			id := ids[rng.Intn(len(ids))]
			peers := template.Speaker(id).Peers()
			if len(peers) == 0 {
				continue
			}
			nb := peers[rng.Intn(len(peers))]
			p := prefixes[rng.Intn(len(prefixes))]
			k := rng.Intn(4)
			ops = append(ops, func(n *Network) {
				n.AdvanceTo(n.Now() + dt)
				n.SetPrefixPrepend(id, nb, p, k)
				n.RunToQuiescence()
			})
		case 1: // session-level prepend delta
			id := ids[rng.Intn(len(ids))]
			peers := template.Speaker(id).Peers()
			if len(peers) == 0 {
				continue
			}
			nb := peers[rng.Intn(len(peers))]
			k := rng.Intn(3)
			ops = append(ops, func(n *Network) {
				n.AdvanceTo(n.Now() + dt)
				n.SetExportPrepend(id, nb, k)
				n.RunToQuiescence()
			})
		case 2: // session flap down
			if downA != 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			peers := template.Speaker(id).Peers()
			if len(peers) == 0 {
				continue
			}
			nb := peers[rng.Intn(len(peers))]
			downA, downB = id, nb
			ops = append(ops, func(n *Network) {
				n.AdvanceTo(n.Now() + dt)
				n.SetSessionDown(id, nb)
				// Deliberately leave the queue partially drained so the
				// flap's consequences interleave with the next op.
				n.Run(n.Now() + 2)
			})
		case 3: // session restore
			if downA == 0 {
				continue
			}
			a, b := downA, downB
			downA, downB = 0, 0
			ops = append(ops, func(n *Network) {
				n.AdvanceTo(n.Now() + dt)
				n.SetSessionUp(a, b)
				n.RunToQuiescence()
			})
		case 4: // originate / withdraw churn at a random speaker
			id := ids[rng.Intn(len(ids))]
			p := prefixes[rng.Intn(len(prefixes))]
			if rng.Intn(2) == 0 {
				ops = append(ops, func(n *Network) {
					n.AdvanceTo(n.Now() + dt)
					n.Originate(id, p)
					n.RunToQuiescence()
				})
			} else {
				ops = append(ops, func(n *Network) {
					n.AdvanceTo(n.Now() + dt)
					n.WithdrawOrigination(id, p)
					n.RunToQuiescence()
				})
			}
		}
	}
	if downA != 0 {
		a, b := downA, downB
		ops = append(ops, func(n *Network) { n.SetSessionUp(a, b); n.RunToQuiescence() })
	}
	ops = append(ops, func(n *Network) { n.RunToQuiescence() })
	return ops
}

// TestIncrementalMatchesFullOnRandomEvents is the engine-level
// differential check: random topologies, random event sequences, and
// after every op the two modes must hold identical observable state —
// RIBs, announcements, churn, virtual clock — while the shared work
// counters stay 1:1.
func TestIncrementalMatchesFullOnRandomEvents(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919)) // #nosec test randomness
		size := 8 + rng.Intn(25)
		full, inc := incPair(seed, size)

		prefixes := []netutil.Prefix{
			netutil.MustParsePrefix("203.0.113.0/24"),
			netutil.MustParsePrefix("198.51.100.0/24"),
			netutil.MustParsePrefix("192.0.2.0/24"),
		}
		for _, p := range prefixes {
			origin := RouterID(1 + rng.Intn(size))
			full.Originate(origin, p)
			inc.Originate(origin, p)
		}
		full.RunToQuiescence()
		inc.RunToQuiescence()

		ops := randomOps(rng, full, prefixes, 30)
		for i, op := range ops {
			op(full)
			op(inc)
			if fs, is := networkSignature(full), networkSignature(inc); fs != is {
				t.Fatalf("seed %d: state diverged after op %d:\n--- full ---\n%s\n--- incremental ---\n%s", seed, i, fs, is)
			}
		}
		fst, ist := full.Stats(), inc.Stats()
		if fst.DecisionRuns != ist.DecisionRuns {
			t.Errorf("seed %d: decision runs differ: full %d, incremental %d", seed, fst.DecisionRuns, ist.DecisionRuns)
		}
		if fst.BestChanges != ist.BestChanges {
			t.Errorf("seed %d: best changes differ: full %d, incremental %d", seed, fst.BestChanges, ist.BestChanges)
		}
		if ist.FullScans >= fst.FullScans {
			t.Errorf("seed %d: incremental did %d full scans, full mode %d — no work saved", seed, ist.FullScans, fst.FullScans)
		}
		if ist.FastPath == 0 {
			t.Errorf("seed %d: fast path never taken", seed)
		}
	}
}

// TestNoopPrependSetsEnqueueNothing is the regression test for the
// unified no-op detection: a prepend set that leaves the effective
// value unchanged must enqueue zero dirty pairs, schedule zero events,
// and send zero messages — in both modes.
func TestNoopPrependSetsEnqueueNothing(t *testing.T) {
	full, inc := incPair(42, 12)
	p := netutil.MustParsePrefix("203.0.113.0/24")
	full.Originate(1, p)
	inc.Originate(1, p)
	full.RunToQuiescence()
	inc.RunToQuiescence()

	origin := inc.Speaker(1)
	if len(origin.Peers()) == 0 {
		t.Fatal("origin has no peers")
	}
	nb := origin.Peers()[0]

	check := func(what string, op func(n *Network)) {
		t.Helper()
		base := inc.Stats()
		msgs := inc.Churn.TotalMessages
		op(inc)
		if got := inc.Stats().DirtyPairs; got != base.DirtyPairs {
			t.Errorf("%s: enqueued %d dirty pairs, want 0", what, got-base.DirtyPairs)
		}
		if inc.queue.Len() != 0 {
			t.Errorf("%s: %d events scheduled, want 0", what, inc.queue.Len())
		}
		inc.RunToQuiescence()
		if inc.Churn.TotalMessages != msgs {
			t.Errorf("%s: %d messages sent, want 0", what, inc.Churn.TotalMessages-msgs)
		}
		fullMsgs := full.Churn.TotalMessages
		op(full)
		full.RunToQuiescence()
		if full.Churn.TotalMessages != fullMsgs {
			t.Errorf("%s (full mode): %d messages sent, want 0", what, full.Churn.TotalMessages-fullMsgs)
		}
	}

	// First-time override equal to the session default: historically
	// this skipped the early return and bumped state before the
	// equality check could hit; it must now be a detected no-op.
	sessionDefault := origin.Peer(nb).ExportPrepend
	check("first-time no-op SetPrefixPrepend", func(n *Network) {
		n.SetPrefixPrepend(1, nb, p, sessionDefault)
	})
	// The override must still have been recorded (it pins the prefix).
	if _, ok := inc.Speaker(1).Peer(nb).PrefixPrepend[p]; !ok {
		t.Error("no-op SetPrefixPrepend did not record the override")
	}
	// Repeated override with the same value.
	check("repeated no-op SetPrefixPrepend", func(n *Network) {
		n.SetPrefixPrepend(1, nb, p, sessionDefault)
	})
	// Session-level set to the current value.
	check("no-op SetExportPrepend", func(n *Network) {
		n.SetExportPrepend(1, nb, sessionDefault)
	})
	// A session-level change must not touch the pinned prefix: with p
	// pinned (above) and no other exportable prefix un-pinned, nothing
	// propagates from the origin's own session... other prefixes may
	// exist, so only assert p's announcement is stable.
	before := routeSig(inc.Speaker(1).AdjOut(p, nb))
	inc.SetExportPrepend(1, nb, sessionDefault+3)
	full.SetExportPrepend(1, nb, sessionDefault+3)
	inc.RunToQuiescence()
	full.RunToQuiescence()
	if after := routeSig(inc.Speaker(1).AdjOut(p, nb)); after != before {
		t.Errorf("session-level prepend change moved a pinned prefix:\nbefore %s\nafter  %s", before, after)
	}
	if fs, is := networkSignature(full), networkSignature(inc); fs != is {
		t.Errorf("modes diverged after no-op battery:\n--- full ---\n%s\n--- incremental ---\n%s", fs, is)
	}
}

// TestMEDGateForcesFullScan checks the fast-path soundness gate: once
// a nonzero-MED route is seen for a prefix, that prefix must full-scan
// (MED breaks transitivity), and results must still match full mode.
func TestMEDGateForcesFullScan(t *testing.T) {
	build := func() *Network {
		net := NewNetwork()
		for i := 1; i <= 4; i++ {
			net.AddSpeaker(RouterID(i), asn.AS(100+i), "")
		}
		custCfg := func(med uint32) [2]PeerConfig {
			return [2]PeerConfig{
				{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer)},
				{ClassifyAs: ClassProvider, ImportLocalPref: LocalPrefProvider, ExportAllow: GaoRexfordExport(ClassProvider), ExportMED: med},
			}
		}
		// Speaker 1 hears prefix routes from its customer 4 over two
		// parallel paths (via 2 and via 3); 4 exports MED toward 3.
		a := custCfg(0)
		net.Connect(1, 2, a[0], a[1])
		b := custCfg(0)
		net.Connect(1, 3, b[0], b[1])
		c := custCfg(0)
		net.Connect(2, 4, c[0], c[1])
		d := custCfg(7)
		net.Connect(3, 4, d[0], d[1])
		return net
	}
	full, inc := build(), build()
	full.SetReferenceScan(true)
	p := netutil.MustParsePrefix("203.0.113.0/24")
	full.Originate(4, p)
	inc.Originate(4, p)
	full.RunToQuiescence()
	inc.RunToQuiescence()

	if !inc.Speaker(3).medSeen[p] {
		t.Fatal("speaker 3 received a MED route but medSeen is unset")
	}
	scansBefore := inc.Stats().FullScans
	// Perturb the MED-carrying session: speaker 3's decision must use
	// a full scan, not the fast path.
	full.SetExportPrepend(4, 3, 2)
	inc.SetExportPrepend(4, 3, 2)
	full.RunToQuiescence()
	inc.RunToQuiescence()
	if inc.Stats().FullScans == scansBefore {
		t.Error("MED-gated prefix decided without a full scan")
	}
	if fs, is := networkSignature(full), networkSignature(inc); fs != is {
		t.Errorf("modes diverged with MED present:\n--- full ---\n%s\n--- incremental ---\n%s", fs, is)
	}
}

// TestBatchCollapsesDuplicateTouches checks Batch semantics: multiple
// touches of the same (router, prefix, neighbor) pair inside one batch
// evaluate once, at the final value.
func TestBatchCollapsesDuplicateTouches(t *testing.T) {
	_, inc := incPair(7, 10)
	p := netutil.MustParsePrefix("203.0.113.0/24")
	inc.Originate(1, p)
	inc.RunToQuiescence()
	nb := inc.Speaker(1).Peers()[0]

	base := inc.Stats()
	inc.Batch(func() {
		inc.SetPrefixPrepend(1, nb, p, 3)
		inc.SetPrefixPrepend(1, nb, p, 1)
	})
	st := inc.Stats()
	if got := st.DirtyPairs - base.DirtyPairs; got != 1 {
		t.Errorf("batch enqueued %d dirty pairs, want 1", got)
	}
	if got := st.DirtyEvals - base.DirtyEvals; got != 1 {
		t.Errorf("batch drained %d dirty evals, want 1", got)
	}
	inc.RunToQuiescence()
	out := inc.Speaker(1).AdjOut(p, nb)
	if out == nil {
		t.Fatal("prefix not announced after batch")
	}
	// The batch's final value (1 prepend) applies, not the first (3).
	if got := out.Path.PrependCount(); got != 1 {
		t.Errorf("announced prepend count = %d, want 1 (the batch's final value)", got)
	}
}

// TestDecisionStateNotRetainedAfterWithdraw is the retention regression
// for the removed decision cache: every scan used to leave a
// len(peers)+1-capacity candidate slice behind per (speaker, prefix),
// forever, so a wide speaker that originated and withdrew a table kept
// ~2 KB per prefix it no longer held. After the withdraw the heap must
// return to the pre-feed level, give or take what emptied maps keep.
func TestDecisionStateNotRetainedAfterWithdraw(t *testing.T) {
	const (
		sessions = 256
		prefixes = 10_000
		slack    = 4 << 20 // retained at the parent: prefixes × (sessions+1) × 8 B ≈ 20 MB
	)
	net := NewNetwork()
	const hub = RouterID(1)
	net.AddSpeaker(hub, asn.AS(65000), "hub")
	for i := 0; i < sessions; i++ {
		id := RouterID(2 + i)
		net.AddSpeaker(id, asn.AS(65001+i), "")
		// The hub exports nothing, so only its own decision state grows.
		net.Connect(hub, id,
			PeerConfig{ClassifyAs: ClassPeer, ExportAllow: NewClassSet()},
			PeerConfig{ClassifyAs: ClassPeer, ExportAllow: NewClassSet()})
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	pfx := func(i int) netutil.Prefix { return netutil.PrefixFrom(uint32(0x0A000000+i*256), 24) }
	before := heap()
	for i := 0; i < prefixes; i++ {
		net.Originate(hub, pfx(i))
	}
	net.RunToQuiescence()
	for i := 0; i < prefixes; i++ {
		net.WithdrawOrigination(hub, pfx(i))
	}
	net.RunToQuiescence()
	after := heap()
	if st := net.Stats(); st.FullScans < prefixes {
		t.Fatalf("withdrawing %d best routes ran %d full scans; the test no longer exercises the scan path", prefixes, st.FullScans)
	}
	if after > before+slack {
		t.Errorf("heap grew %d KB across originate+withdraw of %d prefixes at a %d-session speaker, want <= %d KB",
			(after-before)>>10, prefixes, sessions, slack>>10)
	}
	runtime.KeepAlive(net)
}

// TestRowsReleasedAfterSessionFlush is the adj-RIB-in side of the
// retention check above: a 64-session speaker learns 2,000 prefixes
// over every session, then every session goes down (flushSession).
// The sessions exist, down, before the heap is read, and the neighbors
// originate then too, so the two readings see the same network and the
// heap must come back to the first within the slack.
func TestRowsReleasedAfterSessionFlush(t *testing.T) {
	const (
		sessions = 64
		prefixes = 2_000
		slack    = 2 << 20 // retained at the parent: 13.9 MB of emptied maps
	)
	net := NewNetwork()
	const hub = RouterID(1)
	net.AddSpeaker(hub, asn.AS(65000), "hub")
	for i := 0; i < sessions; i++ {
		id := RouterID(2 + i)
		net.AddSpeaker(id, asn.AS(65001+i), "")
		// The hub exports nothing, so what it learns stays its own.
		net.Connect(hub, id,
			PeerConfig{ClassifyAs: ClassCustomer, ExportAllow: NewClassSet()},
			PeerConfig{ClassifyAs: ClassProvider, ExportAllow: NewClassSet(ClassOwn)})
		net.SetSessionDown(hub, id)
	}
	for i := 0; i < sessions; i++ {
		for p := 0; p < prefixes; p++ {
			net.Originate(RouterID(2+i), netutil.PrefixFrom(uint32(0x0A000000+p*256), 24))
		}
	}
	net.RunToQuiescence()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < sessions; i++ {
		// One session at a time, so the event queue never holds more
		// than one table and its high-water mark is not what is measured.
		net.SetSessionUp(hub, RouterID(2+i))
		net.RunToQuiescence()
	}
	if got := net.Speaker(hub).adjIn.Len(); got != sessions*prefixes {
		t.Fatalf("hub holds %d adj-RIB-in routes, want %d", got, sessions*prefixes)
	}
	for i := 0; i < sessions; i++ {
		net.SetSessionDown(hub, RouterID(2+i))
	}
	net.RunToQuiescence()
	after := heap()
	if n := net.Speaker(hub).adjIn.Len() + net.Speaker(hub).locRib.Len(); n != 0 {
		t.Fatalf("hub still holds %d routes after every session went down", n)
	}
	grew := int64(after) - int64(before)
	t.Logf("heap grew %d KB across learning and flushing %d routes", grew>>10, sessions*prefixes)
	if grew > slack {
		t.Errorf("heap grew %d KB across learning and flushing %d prefixes over %d sessions, want <= %d KB",
			grew>>10, prefixes, sessions, slack>>10)
	}
	runtime.KeepAlive(net)
}
