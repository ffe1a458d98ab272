package bgp

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/asn"
	"repro/internal/netutil"
	snap "repro/internal/snapshot"
)

var updateGolden = flag.Bool("update", false, "rewrite golden snapshot files")

// snapNet builds the same deterministic random world as incPair (a
// Gao-Rexford economy plus one collector), so a snapshot of one build
// can be restored into another.
func snapNet(seed int64, n int) *Network {
	rng := rand.New(rand.NewSource(seed)) // #nosec test randomness
	net := randomGaoRexfordNetwork(rng, n)
	col := net.AddSpeaker(RouterID(n+1), asn.AS(64500), "collector")
	col.Collector = true
	net.Connect(RouterID(1+rng.Intn(n)), col.ID,
		PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer)},
		PeerConfig{ClassifyAs: ClassProvider, ExportAllow: GaoRexfordExport(ClassProvider)})
	return net
}

func mustSnapshot(t *testing.T, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestRestoreEquivalence is the differential harness of the snapshot
// subsystem: across seeds × topology sizes × {full-scan reference
// (incfalse), engine (inctrue)} it drives a network through random
// events, snapshots it mid-sequence, restores
// into a freshly built base, and requires the restored network to be
// byte-identical — same re-snapshot bytes, and the same observable
// signature after every further event as the original.
func TestRestoreEquivalence(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		for _, tc := range []struct {
			seed int64
			size int
		}{
			// 3 seeds × 2 topology shapes.
			{1, 10}, {2, 10}, {3, 10},
			{1, 24}, {2, 24}, {3, 24},
		} {
			name := fmt.Sprintf("seed%d_size%d_inc%v", tc.seed, tc.size, incremental)
			t.Run(name, func(t *testing.T) {
				orig := snapNet(tc.seed, tc.size)
				orig.SetReferenceScan(!incremental)
				rng := rand.New(rand.NewSource(tc.seed * 7919)) // #nosec test randomness
				prefixes := []netutil.Prefix{
					netutil.PrefixFrom(0xCB007100, 24), // 203.0.113.0/24
					netutil.PrefixFrom(0xC6336400, 24), // 198.51.100.0/24
					netutil.PrefixFrom(0xC0000200, 24), // 192.0.2.0/24
				}
				ops := randomOps(rng, orig, prefixes, 30)
				mid := len(ops) / 2
				for _, op := range ops[:mid] {
					op(orig)
				}

				data := mustSnapshot(t, orig)
				restored := snapNet(tc.seed, tc.size)
				restored.SetReferenceScan(!incremental)
				if err := RestoreNetwork(bytes.NewReader(data), restored); err != nil {
					t.Fatalf("restore: %v", err)
				}
				if got, want := networkSignature(restored), networkSignature(orig); got != want {
					t.Fatalf("restored signature differs:\n--- original ---\n%s\n--- restored ---\n%s", want, got)
				}
				if !bytes.Equal(mustSnapshot(t, restored), data) {
					t.Fatal("re-snapshot of restored network is not byte-identical")
				}
				if orig.Stats() != restored.Stats() {
					t.Fatalf("work counters differ: orig=%+v restored=%+v", orig.Stats(), restored.Stats())
				}
				for i, op := range ops[mid:] {
					op(orig)
					op(restored)
					if got, want := networkSignature(restored), networkSignature(orig); got != want {
						t.Fatalf("signatures diverge after post-restore op %d:\n--- original ---\n%s\n--- restored ---\n%s", i, want, got)
					}
				}
				orig.RunToQuiescence()
				restored.RunToQuiescence()
				if got, want := networkSignature(restored), networkSignature(orig); got != want {
					t.Fatal("signatures diverge after final drain")
				}
			})
		}
	}
}

// mraiRfdNet is a small hand-built network with damping and MRAI
// batching enabled, used to park RFD penalties and a pending MRAI
// flush in flight.
func mraiRfdNet() *Network { return mraiRfdNetOn(false) }

// mraiRfdNetOn builds mraiRfdNet, on the arena store when compact is
// set.
func mraiRfdNetOn(compact bool) *Network {
	n := NewNetwork()
	n.SetCompactRIB(compact)
	n.AddSpeaker(1, 65001, "origin")
	n.AddSpeaker(2, 65002, "transit")
	n.AddSpeaker(3, 65003, "edge")
	col := n.AddSpeaker(4, 64500, "collector")
	col.Collector = true
	n.Connect(1, 2,
		PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer), MRAI: 40},
		PeerConfig{ClassifyAs: ClassProvider, ImportLocalPref: LocalPrefProvider, ExportAllow: GaoRexfordExport(ClassProvider), RFD: DefaultRFD()})
	n.Connect(2, 3,
		PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer)},
		PeerConfig{ClassifyAs: ClassProvider, ImportLocalPref: LocalPrefProvider, ExportAllow: GaoRexfordExport(ClassProvider), RFD: DefaultRFD()})
	n.Connect(2, 4,
		PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer)},
		PeerConfig{ClassifyAs: ClassProvider, ExportAllow: GaoRexfordExport(ClassProvider)})
	return n
}

// driveToMidFlight flaps the measurement prefix until the transit
// speaker holds RFD penalty state and the origin has an MRAI flush
// pending, leaving updates in the queue.
func driveToMidFlight(n *Network) netutil.Prefix {
	p := netutil.PrefixFrom(0xCB007100, 24)
	n.Originate(1, p)
	n.RunToQuiescence()
	for i := 1; i <= 5; i++ {
		n.AdvanceTo(n.Now() + 3)
		n.SetPrefixPrepend(1, 2, p, i%3+1)
		n.Run(n.Now() + 1) // deliberately partial drain
	}
	return p
}

// driveToSuppressed changes the measurement prefix's path once per
// MRAI interval, so every change reaches the transit speaker, until its
// damping state passes the suppress threshold; the reuse timer stays
// queued.
func driveToSuppressed(n *Network) netutil.Prefix {
	p := netutil.PrefixFrom(0xCB007100, 24)
	n.Originate(1, p)
	n.RunToQuiescence()
	for i := 1; i <= 3; i++ {
		n.RunTo(n.Now() + 41)
		n.SetPrefixPrepend(1, 2, p, i)
	}
	n.RunTo(n.Now() + 3)
	return p
}

// TestRestoreEquivalenceMidFlight snapshots with RFD penalties
// accumulated (in the suppressed case, past the suppress threshold) and
// updates in flight, restores, and requires identical behavior through
// the drain and further flaps, on both stores: the arena's restore then
// meets queued announcements, a pending MRAI flush and a suppressed
// route.
func TestRestoreEquivalenceMidFlight(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drive func(*Network) netutil.Prefix
	}{
		{"mraiPending", driveToMidFlight},
		{"suppressed", driveToSuppressed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("rows", func(t *testing.T) { testRestoreEquivalence(t, tc.drive, false) })
			t.Run("arena", func(t *testing.T) { testRestoreEquivalence(t, tc.drive, true) })
		})
	}
}

func testRestoreEquivalence(t *testing.T, drive func(*Network) netutil.Prefix, compact bool) {
	orig := mraiRfdNetOn(compact)
	p := drive(orig)

	// The scenario must actually be mid-flight, or the test is vacuous.
	transit := orig.Speaker(2)
	k := ribKey{prefix: p, neighbor: 1}
	if transit.rfd[k].penalty <= 0 {
		t.Fatal("scenario did not accumulate RFD penalty at the transit speaker")
	}
	origin := orig.Speaker(1)
	pending := origin.mrai[ribKey{prefix: p, neighbor: 2}].pending
	suppressed := transit.rfd[k].suppressed
	if !pending && !suppressed {
		t.Fatal("scenario left neither an MRAI flush pending nor a route suppressed")
	}
	if orig.queue.Len() == 0 {
		t.Fatal("scenario left no events in flight")
	}

	data := mustSnapshot(t, orig)
	restored := mraiRfdNetOn(compact)
	if err := RestoreNetwork(bytes.NewReader(data), restored); err != nil {
		t.Fatalf("restore: %v", err)
	}
	checkSuppressedCounts(t, restored)
	if suppressed && (!restored.Speaker(2).rfd[k].suppressed || restored.Speaker(2).nSuppressed != transit.nSuppressed) {
		t.Fatalf("restored transit speaker: suppressed %v, count %d; want true, %d",
			restored.Speaker(2).rfd[k].suppressed, restored.Speaker(2).nSuppressed, transit.nSuppressed)
	}
	if !bytes.Equal(mustSnapshot(t, restored), data) {
		t.Fatal("re-snapshot of restored network is not byte-identical")
	}
	// Drain and keep flapping: damping decay, reuse timers, and the
	// deferred MRAI flush must all fire identically.
	step := func(n *Network) {
		n.RunToQuiescence()
		for i := 0; i < 4; i++ {
			n.AdvanceTo(n.Now() + 120)
			n.SetPrefixPrepend(1, 2, p, i%2)
			n.RunToQuiescence()
		}
		n.AdvanceTo(n.Now() + 7200)
		n.SetPrefixPrepend(1, 2, p, 3)
		n.RunToQuiescence()
	}
	step(orig)
	step(restored)
	if got, want := networkSignature(restored), networkSignature(orig); got != want {
		t.Fatalf("post-restore behavior diverges:\n--- original ---\n%s\n--- restored ---\n%s", want, got)
	}
}

// TestSnapshotDeterministic pins the satellite requirement that
// serialization never leaks map order: two consecutive Snapshot calls
// must be byte-equal, on both a random world and the mid-flight
// damping scenario.
func TestSnapshotDeterministic(t *testing.T) {
	nets := map[string]*Network{
		"random": func() *Network {
			n := snapNet(7, 18)
			rng := rand.New(rand.NewSource(99)) // #nosec test randomness
			prefixes := []netutil.Prefix{netutil.PrefixFrom(0xCB007100, 24), netutil.PrefixFrom(0xC0000200, 24)}
			for _, op := range randomOps(rng, n, prefixes, 12) {
				op(n)
			}
			return n
		}(),
		"midflight": func() *Network {
			n := mraiRfdNet()
			driveToMidFlight(n)
			return n
		}(),
	}
	for name, n := range nets {
		a, b := mustSnapshot(t, n), mustSnapshot(t, n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two consecutive snapshots differ (%d vs %d bytes)", name, len(a), len(b))
		}
	}
}

// countingStore counts the sorted walks made of the store it wraps, of
// either kind: WalkSorted and the snapshot's own appendSorted.
type countingStore struct {
	ribStore
	walks int
}

func (c *countingStore) WalkSorted(fn func(ribKey, *Route) bool) {
	c.walks++
	c.ribStore.WalkSorted(fn)
}

func (c *countingStore) appendSorted(refs []ribRef, ri *routeIndex) []ribRef {
	c.walks++
	return c.ribStore.appendSorted(refs, ri)
}

// TestSnapshotWalksEachStoreOnce pins the one-walk encoder on both
// layouts: the walk that numbers a store's routes is the only one a
// snapshot makes of it (the route table and the speakers section are
// written from its record), and the bytes are those of the unwrapped
// network.
func TestSnapshotWalksEachStoreOnce(t *testing.T) {
	mapNet, arenaNet := diffPair(5, 14)
	for name, n := range map[string]*Network{"map": mapNet, "arena": arenaNet} {
		n.Originate(3, netutil.PrefixFrom(0xCB007100, 24))
		n.Originate(9, netutil.PrefixFrom(0xC0000200, 24))
		n.RunToQuiescence()
		want := mustSnapshot(t, n)

		var stores []*countingStore
		for _, s := range n.speakers {
			for _, field := range []*ribStore{&s.adjIn, &s.locRib, &s.adjOut} {
				c := &countingStore{ribStore: *field}
				*field = c
				stores = append(stores, c)
			}
		}
		if got := mustSnapshot(t, n); !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot through counting stores differs from the plain one", name)
		}
		for _, c := range stores {
			if c.walks != 1 {
				t.Fatalf("%s: a store was walked %d times by one Snapshot, want 1", name, c.walks)
			}
		}
	}
}

// TestSnapshotAllocs pins the arena encoder at O(speakers) allocations:
// records are numbered by position and written from the arena, paths
// are numbered by network ID, and the container is one buffer, so a
// table of thousands of routes costs a few dozen allocations, not a box
// and a map entry per route.
func TestSnapshotAllocs(t *testing.T) {
	n, _ := buildVantageArena(2500)
	routes := n.RIBStats().Routes
	if routes < 5000 {
		t.Fatalf("vantage network holds %d routes; the test needs at least 5000", routes)
	}
	got := testing.AllocsPerRun(5, func() {
		if err := n.Snapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	ceiling := float64(routes) / 20
	t.Logf("%.0f allocations per snapshot of %d routes (ceiling %.0f)", got, routes, ceiling)
	if got > ceiling {
		t.Errorf("one snapshot makes %.0f allocations, want at most %.0f (routes ÷ 20)", got, ceiling)
	}
}

// TestSnapshotSizeHint pins the Writer's single allocation: the size
// computed before the first byte is written covers what is written, on
// both stores and on every kind of state (queue, churn, damping, the
// dirty set), and overshoots by little.
func TestSnapshotSizeHint(t *testing.T) {
	mapNet, arenaNet := diffPair(4, 16)
	prefixes := []netutil.Prefix{netutil.PrefixFrom(0xCB007100, 24), netutil.PrefixFrom(0xC0000200, 24)}
	rng := rand.New(rand.NewSource(11)) // #nosec test randomness
	for _, op := range randomOps(rng, mapNet, prefixes, 16) {
		op(mapNet)
		op(arenaNet)
	}
	vantage, _ := buildVantageArena(3000)
	for name, n := range map[string]*Network{
		"midflight map": goldenNetOn(false), "midflight arena": goldenNetOn(true),
		"random map": mapNet, "random arena": arenaNet, "vantage arena": vantage,
	} {
		ri := newRouteIndex(n)
		pt, routeBytes := n.numberPaths(ri)
		hint := len(snap.EngineMagic) + 2 + n.sizeHint(ri, pt, routeBytes)
		size := len(mustSnapshot(t, n))
		t.Logf("%s: %d bytes, hint %d", name, size, hint)
		if hint < size {
			t.Errorf("%s: hint %d bytes is short of the %d written", name, hint, size)
		}
		if slack := hint - size; slack > size/10+256 {
			t.Errorf("%s: hint %d bytes overshoots the %d written by %d", name, hint, size, slack)
		}
	}
}

func TestSnapshotInsideBatchFails(t *testing.T) {
	n := snapNet(1, 8)
	var err error
	n.Batch(func() {
		var buf bytes.Buffer
		err = n.Snapshot(&buf)
	})
	if err == nil {
		t.Fatal("Snapshot inside Batch succeeded")
	}
}

// TestRestoreInsideBatchFails: RestoreNetwork refuses to run inside a
// Batch, as Snapshot, OpenJournal and Rewind do, and the batch still
// ends at depth 0, so the setters after it drain.
func TestRestoreInsideBatchFails(t *testing.T) {
	n := chainNet()
	p := netutil.MustParsePrefix("203.0.113.0/24")
	n.Originate(1, p)
	n.RunToQuiescence()
	data := mustSnapshot(t, n)
	var err error
	n.Batch(func() { err = RestoreNetwork(bytes.NewReader(data), n) })
	if err == nil {
		t.Fatal("RestoreNetwork inside Batch succeeded")
	}
	n.SetExportPrepend(1, 2, 3)
	n.RunToQuiescence()
	if got, want := n.Speaker(3).Best(p).Path.String(), "200 100 100 100 100"; got != want {
		t.Fatalf("speaker 3 path after the batch = %q, want %q", got, want)
	}
}

// TestRestoreRejectsDirtyEntries: the dirty section is a reserved zero
// count. A file that lists a dirty pair there, as the section's layout
// once allowed, is corrupt, and refusing it leaves the base untouched.
func TestRestoreRejectsDirtyEntries(t *testing.T) {
	n := snapNet(1, 10)
	p := netutil.PrefixFrom(0xCB007100, 24)
	n.Originate(2, p)
	n.RunToQuiescence()
	data := mustSnapshot(t, n)
	secs, err := snap.DecodeSections(data, snap.EngineMagic, snap.EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	var dirty snap.Enc
	dirty.Uvarint(1)
	dirty.U32(2)
	dirty.Prefix(p)
	dirty.U32(1)
	w := snap.NewWriter(snap.EngineMagic, snap.EngineVersion)
	for _, s := range secs {
		if s.ID == secDirty {
			if !bytes.Equal(s.Payload, []byte{0}) {
				t.Fatalf("dirty section written as % x, want the single zero count", s.Payload)
			}
			s.Payload = dirty.Bytes()
		}
		w.Section(s.ID, s.Payload)
	}
	base := snapNet(1, 10)
	before := networkSignature(base)
	if err := RestoreNetwork(bytes.NewReader(w.Bytes()), base); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("restore with a dirty entry: err = %v, want snap.ErrCorrupt", err)
	}
	if networkSignature(base) != before {
		t.Fatal("refusing the dirty entry modified the base network")
	}
	if err := RestoreNetwork(bytes.NewReader(data), base); err != nil {
		t.Fatalf("the unmodified snapshot must still restore: %v", err)
	}
}

func TestRestoreFingerprintMismatch(t *testing.T) {
	orig := snapNet(1, 10)
	data := mustSnapshot(t, orig)
	other := snapNet(2, 10) // different world
	if err := RestoreNetwork(bytes.NewReader(data), other); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
	// The failed restore must leave the base untouched.
	if got, want := networkSignature(other), networkSignature(snapNet(2, 10)); got != want {
		t.Fatal("failed restore mutated the base network")
	}

	// The comparison runs chunk by chunk against the section in place,
	// so its two ends need pinning: a fingerprint that stops early (here
	// inside the last speaker, and at a speaker boundary: the empty
	// network's count byte would otherwise match a prefix) and one that
	// carries a byte past the base's last chunk.
	secs, err := snap.DecodeSections(data, snap.EngineMagic, snap.EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	var fpEnc snap.Enc
	orig.encodeFingerprint(&fpEnc)
	fp := fpEnc.Bytes()
	if !bytes.Equal(secs[1].Payload, fp) {
		t.Fatal("section 1 is not the fingerprint")
	}
	lastSpeaker := 0
	orig.walkFingerprint(func(chunk []byte) bool { lastSpeaker = len(chunk); return true })
	for name, payload := range map[string][]byte{
		"strict prefix":       fp[:len(fp)-1],
		"prefix of speakers":  fp[:len(fp)-lastSpeaker],
		"empty":               nil,
		"trailing byte":       append(bytes.Clone(fp), 0),
		"identical (control)": fp,
	} {
		w := snap.NewWriter(snap.EngineMagic, snap.EngineVersion)
		for i, sec := range secs {
			if i == 1 {
				sec.Payload = payload
			}
			w.Section(sec.ID, sec.Payload)
		}
		base := snapNet(1, 10)
		err := RestoreNetwork(bytes.NewReader(w.Bytes()), base)
		if name == "identical (control)" {
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			continue
		}
		if !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s: err = %v, want ErrSnapshotMismatch", name, err)
		}
		if got, want := networkSignature(base), networkSignature(snapNet(1, 10)); got != want {
			t.Errorf("%s: failed restore mutated the base network", name)
		}
	}
}

// goldenNet is the frozen canonical network of the golden-format test:
// the mid-flight damping scenario, whose state exercises every section
// (RIBs, RFD, MRAI, queue, churn, caches).
func goldenNet() *Network { return goldenNetOn(false) }

// goldenNetOn is goldenNet on the arena store when compact is set.
func goldenNetOn(compact bool) *Network {
	n := mraiRfdNetOn(compact)
	driveToMidFlight(n)
	return n
}

// TestGoldenSnapshotFormat pins the current wire format on both stores:
// encoding the canonical network must reproduce the committed golden
// bytes, and the committed bytes must restore to the canonical state.
// The arena file pins the positional numbering of arena records too:
// its route table holds one entry per store entry, in walk order. A
// failure after a codec change means the format changed: bump
// snapshot.EngineVersion, document it in internal/snapshot/FORMAT.md,
// and regenerate with -update.
func TestGoldenSnapshotFormat(t *testing.T) {
	for _, tc := range []struct {
		file    string
		compact bool
	}{
		{"golden_v2.rbgp", false},
		{"golden_arena_v2.rbgp", true},
	} {
		t.Run(tc.file, func(t *testing.T) {
			golden := filepath.Join("testdata", tc.file)
			data := mustSnapshot(t, goldenNetOn(tc.compact))
			if *updateGolden {
				if err := os.WriteFile(golden, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("encoding the canonical network produced %d bytes differing from the %d golden bytes: codec change without a format-version bump (see internal/snapshot/FORMAT.md)", len(data), len(want))
			}
			restored := mraiRfdNetOn(tc.compact)
			if err := RestoreNetwork(bytes.NewReader(want), restored); err != nil {
				t.Fatalf("golden restore: %v", err)
			}
			if got, wantSig := networkSignature(restored), networkSignature(goldenNetOn(tc.compact)); got != wantSig {
				t.Fatal("golden snapshot restored to a different state")
			}
		})
	}
}

// TestSnapshotVersionPinned fails when EngineVersion is bumped without
// regenerating the golden file, closing the other half of the
// version-bump contract.
func TestSnapshotVersionPinned(t *testing.T) {
	data := mustSnapshot(t, goldenNet())
	if v := uint16(data[4])<<8 | uint16(data[5]); v != snap.EngineVersion {
		t.Fatalf("header version %d != EngineVersion %d", v, snap.EngineVersion)
	}
	if snap.EngineVersion != 2 {
		t.Log("EngineVersion bumped: commit a new testdata/golden_v<N>.rbgp (keep the old ones as refusal fixtures) and document the change in internal/snapshot/FORMAT.md")
	}
}

// refusedUntouched restores the frozen fixture into a mid-flight
// network and requires the typed refusal with the base left exactly as
// it was: the retired layouts have no decoder any more, and a refusal
// that half-applied state would be worse than the shim it replaced.
func refusedUntouched(t *testing.T, fixture string, want error) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatalf("read fixture (frozen, never regenerated): %v", err)
	}
	base := goldenNet()
	before := networkSignature(base)
	if err := RestoreNetwork(bytes.NewReader(data), base); !errors.Is(err, want) {
		t.Fatalf("restore %s: err = %v, want %v", fixture, err, want)
	}
	if networkSignature(base) != before {
		t.Fatalf("refusing %s modified the base network", fixture)
	}
}

// TestV1SnapshotRefused: one format generation per magic. The frozen
// v1 golden file (inline paths, no path-table section) is what the last
// v1 writer produced; it is refused by version, not misread.
func TestV1SnapshotRefused(t *testing.T) {
	refusedUntouched(t, "golden_v1.rbgp", snap.ErrVersion)
}

// TestLegacyDecisionCacheRestore: a v2 snapshot written while the
// engine still had its memoized decision cache lists cache entries per
// speaker where the format now reserves a zero count. The frozen
// fixture (two entries) is corrupt to today's decoder.
func TestLegacyDecisionCacheRestore(t *testing.T) {
	refusedUntouched(t, "legacy_v2_deccache.rbgp", snap.ErrCorrupt)
}

// TestRestoreEquivalenceAcrossStores runs the restore on both ribStore
// layouts: the format is store-agnostic, so the snapshot either layout
// writes must restore into a base of either layout — installed straight
// from file order — to the same observable state. The layouts differ
// only in how many route-table entries a store's entries take: a map
// store keeps the sharing the file had, an arena store numbers every
// entry by position, so the re-snapshot is the arena original's bytes
// as soon as either side is an arena.
func TestRestoreEquivalenceAcrossStores(t *testing.T) {
	prefixes := []netutil.Prefix{
		netutil.PrefixFrom(0xCB007100, 24), // 203.0.113.0/24
		netutil.PrefixFrom(0xC6336400, 24), // 198.51.100.0/24
		netutil.PrefixFrom(0xC0000200, 24), // 192.0.2.0/24
	}
	layouts := []string{"map", "arena"}
	for seed := int64(1); seed <= 3; seed++ {
		var orig [2]*Network
		var data [2][]byte
		orig[0], orig[1] = diffPair(seed, 16)
		rng := rand.New(rand.NewSource(seed * 7919)) // #nosec test randomness
		for _, op := range randomOps(rng, orig[0], prefixes, 20) {
			op(orig[0])
			op(orig[1])
		}
		want := networkSignature(orig[0])
		for i, n := range orig {
			data[i] = mustSnapshot(t, n)
		}
		for from := range layouts {
			var base [2]*Network
			base[0], base[1] = diffPair(seed, 16)
			for to, b := range base {
				name := fmt.Sprintf("seed %d, %s snapshot into %s store", seed, layouts[from], layouts[to])
				// Twice: the second restore rewinds live state through Reset.
				for pass := 0; pass < 2; pass++ {
					if err := RestoreNetwork(bytes.NewReader(data[from]), b); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := networkSignature(b); got != want {
						t.Fatalf("%s: restored to a different state:\n--- original ---\n%s\n--- restored ---\n%s", name, want, got)
					}
					if !bytes.Equal(mustSnapshot(t, b), data[max(from, to)]) {
						t.Fatalf("%s: re-snapshot differs from the %s original's", name, layouts[max(from, to)])
					}
					b.RunToQuiescence()
				}
			}
		}
	}
}

// TestRestoreFromBufferKeepsNoInputBytes: ReadSections decodes a
// *bytes.Buffer's bytes in place, so RestoreNetwork must copy whatever
// it keeps. Each store restores from a buffer that is then drained;
// its backing array is overwritten, and the restored network must
// still snapshot to the original bytes.
func TestRestoreFromBufferKeepsNoInputBytes(t *testing.T) {
	prefixes := []netutil.Prefix{
		netutil.PrefixFrom(0xCB007100, 24), // 203.0.113.0/24
		netutil.PrefixFrom(0xC6336400, 24), // 198.51.100.0/24
	}
	var orig, base [2]*Network
	orig[0], orig[1] = diffPair(4, 16)
	base[0], base[1] = diffPair(4, 16)
	rng := rand.New(rand.NewSource(4)) // #nosec test randomness
	for _, op := range randomOps(rng, orig[0], prefixes, 20) {
		op(orig[0])
		op(orig[1])
	}
	for i, layout := range []string{"rows", "arena"} {
		data := mustSnapshot(t, orig[i])
		backing := slices.Clone(data)
		buf := bytes.NewBuffer(backing)
		if err := RestoreNetwork(buf, base[i]); err != nil {
			t.Fatalf("%s: restore: %v", layout, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: restore left %d bytes in the buffer", layout, buf.Len())
		}
		for j := range backing {
			backing[j] = 0xA5
		}
		if !bytes.Equal(mustSnapshot(t, base[i]), data) {
			t.Errorf("%s: the restored network's snapshot moved with the input buffer's bytes", layout)
		}
	}
}

// ribTableSpans walks the first speaker record of a speakers-section
// payload and returns the byte span of every entry of its adj-RIB-in
// and loc-RIB tables.
func ribTableSpans(t *testing.T, payload []byte) (adjIn, locRib [][2]int) {
	t.Helper()
	d := snap.NewDec(payload)
	pos := func() int { return len(payload) - d.Rest() }
	prefix := func() { d.U32(); d.U8() }
	d.Count(5) // speakers
	d.U32()    // router ID
	for j, n := 0, d.Count(6); j < n; j++ {
		prefix()
		d.Uvarint()
	}
	table := func(minEntry int, key func()) [][2]int {
		var spans [][2]int
		for j, n := 0, d.Count(minEntry); j < n; j++ {
			start := pos()
			key()
			d.Uvarint()
			spans = append(spans, [2]int{start, pos()})
		}
		return spans
	}
	adjIn = table(10, func() { prefix(); d.U32() })
	locRib = table(6, prefix)
	if err := d.Err(); err != nil {
		t.Fatalf("walking the speakers section: %v", err)
	}
	if len(adjIn) < 2 || len(locRib) < 2 {
		t.Fatalf("first speaker has %d adj-RIB-in and %d loc-RIB entries; the test needs two of each", len(adjIn), len(locRib))
	}
	return adjIn, locRib
}

// TestRestoreRejectsUnsortedKeys pins the decode-order check: apply
// installs RIB entries in file order, so a speakers section whose
// adj-RIB-in or loc-RIB keys are out of order, or duplicated, is
// corrupt, and is refused before the base network is touched. So is an
// adj-RIB key naming a neighbor the speaker has no session with.
func TestRestoreRejectsUnsortedKeys(t *testing.T) {
	build := func(origins ...RouterID) *Network {
		n := snapNet(1, 10)
		for i, id := range origins {
			n.Originate(id, netutil.PrefixFrom(0xCB007100+uint32(i)<<8, 24))
		}
		n.RunToQuiescence()
		return n
	}
	data := mustSnapshot(t, build(2, 5, 9))
	secs, err := snap.DecodeSections(data, snap.EngineMagic, snap.EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	at := slices.IndexFunc(secs, func(s snap.Section) bool { return s.ID == secSpeakers })
	payload := secs[at].Payload
	// reseal rewrites the snapshot around a new speakers payload, CRCs
	// and all, through the container's own writer.
	reseal := func(speakers []byte) []byte {
		w := snap.NewWriter(snap.EngineMagic, snap.EngineVersion)
		for i, s := range secs {
			if i == at {
				s.Payload = speakers
			}
			w.Section(s.ID, s.Payload)
		}
		return w.Bytes()
	}
	if !bytes.Equal(reseal(payload), data) {
		t.Fatal("resealing the unmodified speakers section changed the snapshot")
	}

	// splice replaces entries a and b (adjacent spans) with the given bytes.
	splice := func(a, b [2]int, with ...[]byte) []byte {
		out := append([]byte(nil), payload[:a[0]]...)
		for _, w := range with {
			out = append(out, w...)
		}
		return append(out, payload[b[1]:]...)
	}
	entry := func(s [2]int) []byte { return payload[s[0]:s[1]] }
	adjIn, locRib := ribTableSpans(t, payload)
	// The first adj-RIB-in entry again, its neighbor a router the
	// speaker has no session with: the row table has no slot for it.
	var stranger snap.Enc
	stranger.U32(0xFFFFFFF0)
	strangerEntry := slices.Concat(entry(adjIn[0])[:5], stranger.Bytes(), entry(adjIn[0])[9:])
	const order, session = "does not sort after", "names no session"
	cases := map[string]struct {
		speakers []byte
		want     string
	}{
		"adj-RIB-in swapped":         {splice(adjIn[0], adjIn[1], entry(adjIn[1]), entry(adjIn[0])), order},
		"adj-RIB-in duplicated":      {splice(adjIn[0], adjIn[1], entry(adjIn[0]), entry(adjIn[0])), order},
		"loc-RIB swapped":            {splice(locRib[0], locRib[1], entry(locRib[1]), entry(locRib[0])), order},
		"loc-RIB duplicated":         {splice(locRib[0], locRib[1], entry(locRib[0]), entry(locRib[0])), order},
		"adj-RIB-in neighbor absent": {splice(adjIn[0], adjIn[0], strangerEntry), session},
	}

	// The base holds different live state, so an apply that started
	// would show.
	base := build(3)
	before := mustSnapshot(t, base)
	for name, tc := range cases {
		err := RestoreNetwork(bytes.NewReader(reseal(tc.speakers)), base)
		if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(fmt.Sprint(err), tc.want) {
			t.Errorf("%s: err = %v, want snap.ErrCorrupt saying %q", name, err, tc.want)
		}
		if !bytes.Equal(mustSnapshot(t, base), before) {
			t.Fatalf("%s: a rejected restore modified the base network", name)
		}
	}
	if err := RestoreNetwork(bytes.NewReader(data), base); err != nil {
		t.Fatalf("the unmodified snapshot must still restore: %v", err)
	}
}

// TestRibKeyLayout pins the key both stores hash and compare: the
// one-word prefix plus the neighbor, 16 pointer-free bytes.
func TestRibKeyLayout(t *testing.T) {
	if got := unsafe.Sizeof(ribKey{}); got != 16 {
		t.Errorf("unsafe.Sizeof(ribKey{}) = %d, want 16", got)
	}
}

// TestCandViewLayout pins the decision process's input at 40 bytes and
// the solver node that embeds it at 80: candView's fields run widest
// first, so adding age and eBGP cost the node nothing.
func TestCandViewLayout(t *testing.T) {
	if got := unsafe.Sizeof(candView{}); got != 40 {
		t.Errorf("unsafe.Sizeof(candView{}) = %d, want 40", got)
	}
	if got := unsafe.Sizeof(staticNode{}); got != 80 {
		t.Errorf("unsafe.Sizeof(staticNode{}) = %d, want 80", got)
	}
}
