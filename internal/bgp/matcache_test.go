package bgp

import (
	"bytes"
	"testing"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// buildVantageArena builds a compact-RIB network with one vantage
// speaker importing nPrefixes routes from a single feed — enough
// entries per store to exercise the materialization-cache bound.
func buildVantageArena(nPrefixes int) (*Network, []netutil.Prefix) {
	n := NewNetwork()
	n.SetCompactRIB(true)
	const vantage, feed = RouterID(1), RouterID(2)
	n.AddSpeaker(vantage, asn.AS(65000), "vantage")
	n.AddSpeaker(feed, asn.AS(65001), "feed")
	n.Connect(feed, vantage,
		PeerConfig{ClassifyAs: ClassPeer, ExportAllow: NewClassSet(ClassOwn, ClassCustomer)},
		PeerConfig{ClassifyAs: ClassPeer, ImportLocalPref: LocalPrefPeer, ExportAllow: NewClassSet()})
	prefixes := make([]netutil.Prefix, nPrefixes)
	for p := 0; p < nPrefixes; p++ {
		prefixes[p] = netutil.PrefixFrom(uint32(0x0A000000+p*256), 24)
		n.OriginateWith(feed, prefixes[p],
			OriginateOpts{Poison: []asn.AS{asn.AS(70_000 + p/10)}})
	}
	n.RunToQuiescence()
	return n, prefixes
}

// maxMatCache returns the largest materialization cache any single
// store of the network holds.
func maxMatCache(n *Network) int {
	most := 0
	for _, s := range n.speakers {
		for _, store := range []ribStore{s.adjIn, s.locRib, s.adjOut} {
			if st, ok := store.(*arenaStore); ok && len(st.mat) > most {
				most = len(st.mat)
			}
		}
	}
	return most
}

// TestMatCacheBoundedByWalks pins the fix for the arena Get
// materialization-cache leak: a full-table walk used to box the entire
// store into the per-key memo permanently. The bounded cache must hold
// every store at or under matCacheCap after a point-Get pass and after
// a full WalkSorted, whose epoch clears happen mid-walk; a snapshot
// boxes nothing at all, so it leaves the memo as it found it, and the
// epoch clears must not change a byte of what it writes or what it
// restores to.
func TestMatCacheBoundedByWalks(t *testing.T) {
	const nPrefixes = 3 * matCacheCap / 2
	n, prefixes := buildVantageArena(nPrefixes)

	// Point-Get storm over the loc-RIB: the cache must epoch-clear
	// instead of accumulating one box per prefix.
	for _, p := range prefixes {
		if n.Speaker(1).Best(p) == nil {
			t.Fatalf("vantage lost route for %v", p)
		}
	}
	if got := maxMatCache(n); got > matCacheCap {
		t.Fatalf("after a full point-Get pass: a store retains %d boxed routes, want <= %d", got, matCacheCap)
	}

	// A full walk of every store, each longer than the cap.
	for _, s := range n.speakers {
		for _, st := range []ribStore{s.adjIn, s.locRib, s.adjOut} {
			st.WalkSorted(func(ribKey, *Route) bool { return true })
		}
	}
	if got := maxMatCache(n); got > matCacheCap {
		t.Fatalf("after full walks: a store retains %d boxed routes, want <= %d", got, matCacheCap)
	}
	boxed := n.MatCacheEntries()
	if boxed == 0 {
		t.Fatal("after full walks: no boxed routes at all — the walk did not go through the memo this test bounds")
	}

	// A snapshot reads the arena records and boxes none.
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got := n.MatCacheEntries(); got != boxed {
		t.Fatalf("snapshot changed the memo from %d to %d boxed routes; it should box nothing", boxed, got)
	}

	// The snapshot taken under the bound must restore into an
	// identically built network and reproduce the table.
	base, _ := buildVantageArena(nPrefixes)
	if err := RestoreNetwork(bytes.NewReader(buf.Bytes()), base); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, p := range []netutil.Prefix{prefixes[0], prefixes[nPrefixes/2], prefixes[nPrefixes-1]} {
		a, b := n.Speaker(1).Best(p), base.Speaker(1).Best(p)
		if !routesEqual(a, b) {
			t.Fatalf("restored best for %v: %v != %v", p, b, a)
		}
	}

	// Epoch clears must never change results: a second snapshot of the
	// same network is byte-identical to the first.
	var buf2 bytes.Buffer
	if err := n.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("second snapshot differs from the first after cache epoch clears")
	}
}
