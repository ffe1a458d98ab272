package bgp

import (
	"math/rand"
	"testing"

	"repro/internal/asn"
	"repro/internal/netutil"
)

// FuzzIncrementalEvents decodes a byte string into an event sequence —
// prepend deltas, session flaps, originations, withdrawals, partial
// drains — and drives a full-scan-reference and an engine copy of a
// fixed topology through it, requiring identical observable state at
// every step. The topology deliberately includes the engine's hard
// features: an RFD-damped import, an MRAI-batched export, a VRF-style
// ExportBestOf session, a MED-exporting session, and a collector.

var fuzzPrefixes = []netutil.Prefix{
	netutil.MustParsePrefix("203.0.113.0/24"),
	netutil.MustParsePrefix("198.51.100.0/24"),
}

// fuzzTopology: 1 is the top provider of 2 and 3; 4 is a customer of
// both 2 and 3; 2—3 peer laterally; 5 is a collector fed by 1.
//
//	  5 (collector, ExportBestOf)
//	  |
//	  1        RFD on 1's import from 2
//	 / \       MRAI on 2's export to 1
//	2---3      MED on 4's export to 3
//	 \ /
//	  4
func fuzzTopology() *Network {
	net := NewNetwork()
	for i := 1; i <= 5; i++ {
		net.AddSpeaker(RouterID(i), asn.AS(64496+i), "")
	}
	provSide := func(extra func(*PeerConfig)) PeerConfig {
		pc := PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer, ExportAllow: GaoRexfordExport(ClassCustomer)}
		if extra != nil {
			extra(&pc)
		}
		return pc
	}
	custSide := func(extra func(*PeerConfig)) PeerConfig {
		pc := PeerConfig{ClassifyAs: ClassProvider, ImportLocalPref: LocalPrefProvider, ExportAllow: GaoRexfordExport(ClassProvider)}
		if extra != nil {
			extra(&pc)
		}
		return pc
	}
	net.Connect(1, 2,
		provSide(func(pc *PeerConfig) { pc.RFD = DefaultRFD() }),
		custSide(func(pc *PeerConfig) { pc.MRAI = 5 }))
	net.Connect(1, 3, provSide(nil), custSide(nil))
	net.Connect(2, 4, provSide(nil), custSide(nil))
	net.Connect(3, 4, provSide(nil), custSide(func(pc *PeerConfig) { pc.ExportMED = 9 }))
	peer := PeerConfig{ClassifyAs: ClassPeer, ImportLocalPref: LocalPrefPeer, ExportAllow: GaoRexfordExport(ClassPeer)}
	net.Connect(2, 3, peer, peer)
	col := net.Speaker(5)
	col.Collector = true
	net.Connect(1, 5,
		PeerConfig{ClassifyAs: ClassCustomer, ImportLocalPref: LocalPrefCustomer,
			ExportAllow:  GaoRexfordExport(ClassCustomer),
			ExportBestOf: func(r *Route) bool { return r.Class == ClassCustomer || r.Class == ClassOwn }},
		PeerConfig{ClassifyAs: ClassProvider, ExportAllow: GaoRexfordExport(ClassProvider)})
	return net
}

// fuzzOp is one decoded step, applied identically to both networks.
type fuzzOp func(*Network)

// decodeFuzzOps turns the byte string into a replayable op list. All
// validity decisions (is the session already down? is the prefix
// originated?) are made here against tracked state, never by peeking
// at a network, so both modes see the exact same calls.
func decodeFuzzOps(data []byte) []fuzzOp {
	sessions := [][2]RouterID{{1, 2}, {1, 3}, {2, 4}, {3, 4}, {2, 3}, {1, 5}}
	down := make(map[[2]RouterID]bool)
	originated := map[[2]int]bool{{4, 0}: true, {4, 1}: true} // (router, prefix index)
	var ops []fuzzOp
	if len(data) > 3*64 {
		data = data[:3*64]
	}
	for ; len(data) >= 3; data = data[3:] {
		b0, b1, b2 := data[0], data[1], data[2]
		switch b0 % 6 {
		case 0: // per-prefix prepend
			r := RouterID(1 + b1%4)
			pi := int(b1/4) % len(fuzzPrefixes)
			p := fuzzPrefixes[pi]
			k := int(b2 / 8 % 4)
			nbSel := b2
			ops = append(ops, func(n *Network) {
				peers := n.Speaker(r).Peers() // deterministic order
				nb := peers[int(nbSel)%len(peers)]
				n.SetPrefixPrepend(r, nb, p, k)
			})
		case 1: // session-wide prepend
			r := RouterID(1 + b1%4)
			k := int(b2 / 8 % 4)
			nbSel := b2
			ops = append(ops, func(n *Network) {
				peers := n.Speaker(r).Peers()
				nb := peers[int(nbSel)%len(peers)]
				n.SetExportPrepend(r, nb, k)
			})
		case 2: // session down
			ses := sessions[int(b1)%len(sessions)]
			if down[ses] {
				continue
			}
			down[ses] = true
			ops = append(ops, func(n *Network) { n.SetSessionDown(ses[0], ses[1]) })
		case 3: // session up
			ses := sessions[int(b1)%len(sessions)]
			if !down[ses] {
				continue
			}
			delete(down, ses)
			ops = append(ops, func(n *Network) { n.SetSessionUp(ses[0], ses[1]) })
		case 4: // advance the clock and (partially) drain
			dt := Time(1 + b1%32)
			full := b2%4 == 0
			slack := Time(b2 % 8)
			ops = append(ops, func(n *Network) {
				n.AdvanceTo(n.Now() + dt)
				if full {
					n.RunToQuiescence()
				} else {
					n.Run(n.Now() + slack)
				}
			})
		case 5: // toggle an origination
			r := RouterID(1 + b1%4)
			pi := int(b2) % len(fuzzPrefixes)
			p := fuzzPrefixes[pi]
			key := [2]int{int(r), pi}
			if originated[key] {
				delete(originated, key)
				ops = append(ops, func(n *Network) { n.WithdrawOrigination(r, p) })
			} else {
				originated[key] = true
				ops = append(ops, func(n *Network) { n.Originate(r, p) })
			}
		}
	}
	// Deterministic cleanup so every input ends at quiescence with all
	// sessions up (exercises the re-advertisement path too).
	for _, ses := range sessions {
		if down[ses] {
			ses := ses
			ops = append(ops, func(n *Network) { n.SetSessionUp(ses[0], ses[1]) })
		}
	}
	ops = append(ops, func(n *Network) {
		n.AdvanceTo(n.Now() + 4096) // past any RFD reuse / MRAI flush horizon
		n.RunToQuiescence()
	})
	return ops
}

// TestExportsSettledOnRandomInputs is the settled-exports invariant in
// tier-1: seeded random inputs to the fuzz target's decoder, each
// ending at quiescence with every session up. The differential
// harness cannot see a lost update — the engine and its reference lose
// the same one; the MRAI flush timer dropped on a down session (the
// flap-inside-a-window seed below) fails this within the first few
// thousand inputs.
func TestExportsSettledOnRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(25)) // #nosec test randomness
	var data []byte
	defer func() {
		if t.Failed() {
			t.Logf("input % x", data)
		}
	}()
	for i := 0; i < 5000; i++ {
		data = make([]byte, 3*(4+rng.Intn(20)))
		rng.Read(data)
		n := fuzzTopology()
		for _, p := range fuzzPrefixes {
			n.Originate(4, p)
		}
		n.RunToQuiescence()
		for _, op := range decodeFuzzOps(data) {
			op(n)
		}
		requireExportsSettled(t, n)
	}
}

func FuzzIncrementalEvents(f *testing.F) {
	// A quiet input, a config-delta battery, and a flap battery.
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x10, 0x01, 0x02, 0x18, 0x04, 0x05, 0x00})
	f.Add([]byte{0x02, 0x00, 0x00, 0x04, 0x03, 0x01, 0x03, 0x00, 0x00, 0x02, 0x02, 0x00, 0x04, 0x1f, 0x04})
	// Session flap during a config delta: prepend set, flap down the
	// session that carries the new announcement mid-drain, partially
	// run, restore, withdraw/re-originate while damped.
	f.Add([]byte{
		0x00, 0x03, 0x08, // prefix prepend at router 4
		0x02, 0x02, 0x00, // session 2—4 down before draining
		0x04, 0x02, 0x01, // advance 3, partial drain
		0x03, 0x02, 0x00, // session 2—4 back up
		0x05, 0x03, 0x00, // withdraw prefix 0 at router 4
		0x04, 0x06, 0x02, // advance, partial drain
		0x05, 0x03, 0x00, // re-originate
		0x02, 0x00, 0x00, // flap 1—2 (the RFD/MRAI session)
		0x04, 0x01, 0x03, // advance, partial
		0x03, 0x00, 0x00, // restore 1—2
	})
	// Session flap inside an MRAI window: the flush timer fires onto the
	// down session, and the next export after the restore, inside the
	// new window, must still reach the neighbour.
	f.Add([]byte{
		0x00, 0x01, 0x09, // router 2 prepends prefix 0 once toward 1, inside 2→1's MRAI window
		0x02, 0x00, 0x00, // session 1—2 down with the flush pending
		0x04, 0x04, 0x00, // advance 5, drain: the timer fires
		0x03, 0x00, 0x00, // session 1—2 back up: sent at once, a new window opens
		0x00, 0x01, 0x18, // router 2 prepends prefix 0 three times toward 1, inside it
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeFuzzOps(data)
		full := fuzzTopology()
		full.SetReferenceScan(true)
		inc := fuzzTopology()
		for _, p := range fuzzPrefixes {
			full.Originate(4, p)
			inc.Originate(4, p)
		}
		full.RunToQuiescence()
		inc.RunToQuiescence()
		for i, op := range ops {
			op(full)
			op(inc)
			if fs, is := networkSignature(full), networkSignature(inc); fs != is {
				t.Fatalf("state diverged after op %d/%d:\n--- full ---\n%s\n--- incremental ---\n%s", i+1, len(ops), fs, is)
			}
			for _, p := range fuzzPrefixes {
				if err := DiffCatchment(inc, p); err != nil {
					t.Fatalf("after op %d/%d: %v", i+1, len(ops), err)
				}
			}
		}
		fst, ist := full.Stats(), inc.Stats()
		if fst.DecisionRuns != ist.DecisionRuns || fst.BestChanges != ist.BestChanges {
			t.Fatalf("work accounting diverged: full {runs %d, changes %d}, incremental {runs %d, changes %d}",
				fst.DecisionRuns, fst.BestChanges, ist.DecisionRuns, ist.BestChanges)
		}
		// The ops end at quiescence with every session up.
		requireExportsSettled(t, inc)
	})
}
