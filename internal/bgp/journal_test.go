package bgp

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/netutil"
)

// journalNet is chainNet with damping on both downstream sessions,
// MRAI batching on both exports toward them and a MED on the edge's
// import, so a random walk leaves RFD penalties, suppressions, reuse
// and flush timers and medSeen flags behind.
func journalNet(compact bool) *Network {
	n := chainNetOn(compact)
	n.Speaker(2).Peer(1).RFD = DefaultRFD()
	n.Speaker(3).Peer(2).RFD = DefaultRFD()
	n.Speaker(1).Peer(2).MRAI = 30
	n.Speaker(2).Peer(3).MRAI = 30
	n.Speaker(2).Peer(3).ExportMED = 7
	return n
}

var journalPrefixes = []netutil.Prefix{
	netutil.PrefixFrom(0xCB007100, 24), // 203.0.113.0/24
	netutil.PrefixFrom(0xC6336400, 24), // 198.51.100.0/24
}

// journalOp applies one random input to the chain network. With policy
// set it may also change fingerprinted policy (import localpref, export
// classes) and the speaker-wide import filter, which a snapshot
// restore into a freshly built base cannot reproduce.
func journalOp(rng *rand.Rand, n *Network, policy bool) {
	p := journalPrefixes[rng.Intn(len(journalPrefixes))]
	sessions := [][2]RouterID{{1, 2}, {2, 1}, {2, 3}, {3, 2}}
	s := sessions[rng.Intn(len(sessions))]
	origin := RouterID(1 + 2*rng.Intn(2)) // the chain's two ends
	n.AdvanceTo(n.Now() + Time(rng.Intn(20)))
	ops := 9
	if policy {
		ops = 13
	}
	switch rng.Intn(ops) {
	case 0:
		var opts OriginateOpts
		if rng.Intn(2) == 0 {
			opts.Communities = NewCommunitySet(MakeCommunity(100, uint16(rng.Intn(3))))
		}
		n.OriginateWith(origin, p, opts)
	case 1:
		n.WithdrawOrigination(origin, p)
	case 2:
		n.SetExportPrepend(s[0], s[1], rng.Intn(3))
	case 3:
		n.SetPrefixPrepend(s[0], s[1], p, rng.Intn(3))
	case 4:
		n.SetSessionDown(s[0], s[1])
	case 5:
		n.SetSessionUp(s[0], s[1])
	case 6: // RFD flaps: the route comes and goes faster than it decays
		for i := 0; i < 1+rng.Intn(3); i++ {
			n.Originate(1, p)
			n.Run(n.Now() + 2)
			n.AdvanceTo(n.Now() + 3)
			n.WithdrawOrigination(1, p)
			n.Run(n.Now() + 2)
		}
	case 7:
		n.Run(n.Now() + Time(rng.Intn(40)))
	case 8:
		n.RunToQuiescence()
	case 9:
		n.SetImportLocalPref(s[0], s[1], []uint32{0, 50, 150, 250}[rng.Intn(4)])
	case 10:
		n.SetExportAllow(s[0], s[1], []ClassSet{GaoRexfordExport(ClassCustomer), GaoRexfordExport(ClassProvider)}[rng.Intn(2)])
	case 11:
		var deny func(*Route) bool
		if rng.Intn(2) == 0 {
			deny = func(r *Route) bool { return r.Prefix == p }
		}
		n.SetImportDeny(s[0], deny)
	case 12:
		n.Batch(func() {
			n.SetPrefixPrepend(s[0], s[1], p, rng.Intn(3))
			n.SetImportLocalPref(s[0], s[1], []uint32{0, 150}[rng.Intn(2)])
			n.OriginateWith(origin, p, OriginateOpts{Communities: NewCommunitySet(NoExport)})
		})
	}
}

// TestJournalRewindMatchesSnapshot: on 200 random inputs per store, a
// journal opened mid-flight (updates, MRAI flushes and RFD reuse checks
// queued) rewinds every round of random inputs to the exact fork point
// — the snapshot bytes taken at open, and every speaker's count of
// suppressed damping states — and the rewound network then behaves
// like one restored from that snapshot.
func TestJournalRewindMatchesSnapshot(t *testing.T) {
	for _, compact := range []bool{false, true} {
		var queued, mrai, rfd, suppressed int
		for seed := int64(1); seed <= 200; seed++ {
			rng := rand.New(rand.NewSource(seed)) // #nosec test randomness
			n := journalNet(compact)
			for i := 0; i < 10+rng.Intn(20); i++ {
				journalOp(rng, n, false)
			}
			// End on a flap left in flight.
			p := journalPrefixes[rng.Intn(len(journalPrefixes))]
			n.WithdrawOrigination(1, p)
			n.Originate(1, p)
			n.Run(n.Now() + Time(rng.Intn(2)))
			if n.PendingEvents() > 0 {
				queued++
			}
			for _, it := range n.queue.Sorted() {
				if it.V.mrai {
					mrai++
					break
				}
			}
			for _, it := range n.queue.Sorted() {
				if it.V.rfd {
					rfd++
					break
				}
			}
			if n.Speaker(2).nSuppressed+n.Speaker(3).nSuppressed > 0 {
				suppressed++
			}

			fork := mustSnapshot(t, n)
			if err := n.OpenJournal(); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 4; round++ {
				for i := 0; i < 1+rng.Intn(15); i++ {
					journalOp(rng, n, true)
				}
				if err := n.Rewind(); err != nil {
					t.Fatal(err)
				}
				checkSuppressedCounts(t, n)
				if got := mustSnapshot(t, n); !bytes.Equal(got, fork) {
					t.Fatalf("compact=%v seed %d round %d: rewound snapshot differs from the fork point", compact, seed, round)
				}
			}

			// Beyond the bytes: the same further inputs take the rewound
			// network and a restored one to the same state.
			restored := journalNet(compact)
			if err := RestoreNetwork(bytes.NewReader(fork), restored); err != nil {
				t.Fatal(err)
			}
			checkSuppressedCounts(t, restored)
			n.CloseJournal()
			tail := rng.Int63()
			for _, net := range []*Network{n, restored} {
				r := rand.New(rand.NewSource(tail)) // #nosec test randomness
				for i := 0; i < 10; i++ {
					journalOp(r, net, false)
				}
				net.RunToQuiescence()
			}
			if !bytes.Equal(mustSnapshot(t, n), mustSnapshot(t, restored)) {
				t.Fatalf("compact=%v seed %d: rewound and restored networks diverge under the same inputs", compact, seed)
			}
		}
		t.Logf("compact=%v: journal opened with events queued %d/200, an MRAI flush %d, an RFD reuse check %d, a route suppressed %d",
			compact, queued, mrai, rfd, suppressed)
		if queued < 100 || mrai < 20 || rfd < 20 || suppressed < 20 {
			t.Fatalf("compact=%v: fork points too quiet to test the journal (%d queued, %d MRAI, %d RFD, %d suppressed)",
				compact, queued, mrai, rfd, suppressed)
		}
	}
}

// checkSuppressedCounts requires every speaker's count of suppressed
// damping states to be the number of its rfd states with the bit set.
// The count is not in the snapshot bytes, so a byte comparison cannot
// see it drift.
func checkSuppressedCounts(t *testing.T, n *Network) {
	t.Helper()
	for _, id := range n.order {
		s := n.speakers[id]
		held := 0
		for _, st := range s.rfd {
			if st.suppressed {
				held++
			}
		}
		if s.nSuppressed != held {
			t.Fatalf("speaker %d counts %d suppressed damping states and holds %d", id, s.nSuppressed, held)
		}
	}
}

// TestJournalErrors: OpenJournal and Rewind refuse to run inside a
// Batch, as Snapshot does; a journal cannot be opened twice or rewound
// when closed; and a snapshot restore refuses a journaled network.
func TestJournalErrors(t *testing.T) {
	n := journalNet(false)
	n.Batch(func() {
		if err := n.OpenJournal(); err == nil {
			t.Error("OpenJournal inside Batch succeeded")
		}
	})
	if err := n.Rewind(); err == nil {
		t.Error("Rewind without an open journal succeeded")
	}
	fork := mustSnapshot(t, n)
	if err := n.OpenJournal(); err != nil {
		t.Fatal(err)
	}
	if err := n.OpenJournal(); err == nil {
		t.Error("second OpenJournal succeeded")
	}
	n.Batch(func() {
		if err := n.Rewind(); err == nil {
			t.Error("Rewind inside Batch succeeded")
		}
	})
	if err := RestoreNetwork(bytes.NewReader(fork), n); err == nil {
		t.Error("RestoreNetwork into a journaled network succeeded")
	}
	n.CloseJournal()
	if err := RestoreNetwork(bytes.NewReader(fork), n); err != nil {
		t.Fatalf("RestoreNetwork after CloseJournal: %v", err)
	}
}
