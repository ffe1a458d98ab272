package bgp

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/netutil"
	snap "repro/internal/snapshot"
	"repro/internal/vtime"
)

// refuseRestore requires RestoreNetwork to refuse data with
// snap.ErrCorrupt, saying want, and to leave a fresh base from build
// untouched.
func refuseRestore(t *testing.T, name string, data []byte, build func() *Network, want string) {
	t.Helper()
	base := build()
	before := networkSignature(base)
	err := RestoreNetwork(bytes.NewReader(data), base)
	if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(fmt.Sprint(err), want) {
		t.Errorf("%s: err = %v, want snap.ErrCorrupt saying %q", name, err, want)
	}
	if networkSignature(base) != before {
		t.Errorf("%s: a refused restore modified the base network", name)
	}
}

// editSpeakers returns data with the one occurrence of from in its
// speakers section replaced by to, re-sealed around the edited section.
func editSpeakers(t *testing.T, data, from, to []byte) []byte {
	t.Helper()
	secs, err := snap.DecodeSections(data, snap.EngineMagic, snap.EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	w := snap.NewWriter(snap.EngineMagic, snap.EngineVersion)
	for _, s := range secs {
		if s.ID == secSpeakers {
			if c := bytes.Count(s.Payload, from); c != 1 {
				t.Fatalf("the edited bytes occur %d times in the speakers section, want 1", c)
			}
			s.Payload = bytes.Replace(s.Payload, from, to, 1)
		}
		w.Section(s.ID, s.Payload)
	}
	return w.Bytes()
}

// encBytes returns what f encodes.
func encBytes(f func(*snap.Enc)) []byte {
	var e snap.Enc
	f(&e)
	return e.Bytes()
}

// encSet writes a key set as the speakers section does: its count,
// then the keys.
func encSet(e *snap.Enc, keys ...ribKey) {
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		encRibKey(e, k)
	}
}

// TestRestoreRejectsContradictoryDamping: a speaker's suppressed set
// lists the damping states whose suppressed bit is set, a key in it
// exactly when that key's state is suppressed. The engine writes the
// set from the states, so a file whose two disagree — here edited into
// the sealed bytes — is not one it wrote; it is corrupt.
func TestRestoreRejectsContradictoryDamping(t *testing.T) {
	p := netutil.MustParsePrefix("203.0.113.0/24")
	k := ribKey{prefix: p, neighbor: 2}
	rs := rfdState{penalty: 3000, lastUpdate: 5, suppressed: true, suppressAt: 5}
	n := chainNet()
	n.Originate(1, p)
	n.RunToQuiescence()
	setEntry(&n.speakers[3].rfd, k, rs)
	n.speakers[3].nSuppressed = 1
	data := mustSnapshot(t, n)
	if err := RestoreNetwork(bytes.NewReader(data), chainNet()); err != nil {
		t.Fatalf("the consistent snapshot must restore: %v", err)
	}
	// tables is speaker 3's damping states and suppressed set as written.
	tables := func(states []rfdState, set ...ribKey) []byte {
		return encBytes(func(e *snap.Enc) {
			e.Uvarint(uint64(len(states)))
			for _, st := range states {
				encRibKey(e, k)
				e.F64(st.penalty)
				e.I64(int64(st.lastUpdate))
				e.Bool(st.suppressed)
				e.I64(int64(st.suppressAt))
			}
			encSet(e, set...)
		})
	}
	written := tables([]rfdState{rs}, k)
	unsup := rs
	unsup.suppressed = false
	for _, c := range []struct {
		name, want string
		to         []byte
	}{
		{"suppressed key without damping state", "without suppressed damping state", tables(nil, k)},
		{"suppressed key over unsuppressed damping state", "without suppressed damping state", tables([]rfdState{unsup}, k)},
		{"suppressed damping state outside the set", "suppressed damping states", tables([]rfdState{rs})},
	} {
		refuseRestore(t, c.name, editSpeakers(t, data, written, c.to), chainNet, c.want)
	}
}

// TestRestoreRejectsContradictoryMRAI: a pending MRAI batch and its
// queued flush timer come and go together (exportToPeer sets the one
// when it queues the other, the flush's delivery clears it). A pending
// key with no timer restored cleanly before and held the session's
// exports back for good; it is corrupt, and so are a timer with no
// pending key and a key with two timers. exportToPeer opens a batch
// only after an update went out, so a pending key with no last-sent
// time — edited into the sealed bytes, as no network holds one — is
// corrupt too.
func TestRestoreRejectsContradictoryMRAI(t *testing.T) {
	p := netutil.PrefixFrom(0xCB007100, 24)
	k := ribKey{prefix: p, neighbor: 2}
	converged := func() *Network {
		n := mraiRfdNet()
		n.Originate(1, p)
		n.RunToQuiescence()
		return n
	}
	flush := func(n *Network) {
		n.queue.Push(vtime.Time(n.clock+40), event{to: 1, from: 2, prefix: p, mrai: true})
	}
	pend := func(n *Network) {
		ms := n.speakers[1].mrai[k]
		ms.pending = true
		setEntry(&n.speakers[1].mrai, k, ms)
	}
	// A batch really in flight restores: driveToMidFlight leaves one.
	mid := mraiRfdNet()
	driveToMidFlight(mid)
	if !mid.speakers[1].mrai[k].pending {
		t.Fatal("driveToMidFlight left no MRAI batch pending")
	}
	if err := RestoreNetwork(bytes.NewReader(mustSnapshot(t, mid)), mraiRfdNet()); err != nil {
		t.Fatalf("a snapshot with a batch in flight must restore: %v", err)
	}

	n := converged()
	pend(n)
	refuseRestore(t, "pending batch without a flush", mustSnapshot(t, n), mraiRfdNet, "has 0 queued flushes")

	n = converged()
	flush(n)
	refuseRestore(t, "flush without a pending batch", mustSnapshot(t, n), mraiRfdNet, "have no pending batch")

	n = converged()
	pend(n)
	flush(n)
	flush(n)
	refuseRestore(t, "pending batch with two flushes", mustSnapshot(t, n), mraiRfdNet, "has 2 queued flushes")

	// The flush must be the batch's own: same speaker, neighbor and
	// prefix.
	n = converged()
	pend(n)
	n.queue.Push(vtime.Time(n.clock+40), event{to: 2, from: 1, prefix: p, mrai: true})
	refuseRestore(t, "pending batch with another session's flush", mustSnapshot(t, n), mraiRfdNet, "has 0 queued flushes")

	// Speaker 1's last-sent and pending tables each hold k alone; the
	// edit empties the first.
	n = converged()
	pend(n)
	flush(n)
	last := n.speakers[1].mrai[k].last
	written := encBytes(func(e *snap.Enc) {
		e.Uvarint(1)
		encRibKey(e, k)
		e.I64(int64(last))
		encSet(e, k)
	})
	unsent := encBytes(func(e *snap.Enc) {
		e.Uvarint(0)
		encSet(e, k)
	})
	refuseRestore(t, "pending batch without a last-sent time", editSpeakers(t, mustSnapshot(t, n), written, unsent), mraiRfdNet, "has no last-sent time")
}

// TestRestoreRejectsUnsortedSideTables extends the RIB tables' order
// rule to the speaker record's side tables: each is written in
// strictly increasing key order, so a file whose keys are swapped or
// duplicated — here in the suppressed set and the MED-seen list,
// re-sealed around the edited speakers section — is corrupt.
func TestRestoreRejectsUnsortedSideTables(t *testing.T) {
	p1, p2 := netutil.MustParsePrefix("203.0.113.0/24"), netutil.MustParsePrefix("203.0.114.0/24")
	k1, k2 := ribKey{prefix: p1, neighbor: 2}, ribKey{prefix: p2, neighbor: 2}
	n := chainNet()
	s := n.speakers[3]
	for _, k := range []ribKey{k1, k2} {
		setEntry(&s.rfd, k, rfdState{penalty: 3000, suppressed: true})
		s.nSuppressed++
		setEntry(&s.medSeen, k.prefix, true)
	}
	data := mustSnapshot(t, n)
	if err := RestoreNetwork(bytes.NewReader(data), chainNet()); err != nil {
		t.Fatalf("the sorted snapshot must restore: %v", err)
	}
	key := func(k ribKey) []byte { return encBytes(func(e *snap.Enc) { encRibKey(e, k) }) }
	pfx := func(p netutil.Prefix) []byte { return encBytes(func(e *snap.Enc) { e.Prefix(p) }) }
	// Each table's two entries are adjacent in the payload, and nowhere
	// else are those bytes adjacent.
	edit := func(from, to []byte) []byte { return editSpeakers(t, data, from, to) }
	for name, edited := range map[string][]byte{
		"suppressed swapped":    edit(slices.Concat(key(k1), key(k2)), slices.Concat(key(k2), key(k1))),
		"suppressed duplicated": edit(slices.Concat(key(k1), key(k2)), slices.Concat(key(k1), key(k1))),
		"MED-seen swapped":      edit(slices.Concat(pfx(p1), pfx(p2)), slices.Concat(pfx(p2), pfx(p1))),
		"MED-seen duplicated":   edit(slices.Concat(pfx(p1), pfx(p2)), slices.Concat(pfx(p2), pfx(p2))),
	} {
		refuseRestore(t, name, edited, chainNet, "does not sort after")
	}
}

// TestRestoreRejectsForeignAdjIn: an adj-RIB-in entry holds what its
// key's neighbor sent, so its route's From is that neighbor. The arena
// chains a prefix's adj-RIB-in entries by From, and the decision keys
// damping on it; an entry naming another From — edited into the sealed
// bytes, as the engine never writes one — is corrupt, on both stores.
func TestRestoreRejectsForeignAdjIn(t *testing.T) {
	p := netutil.MustParsePrefix("203.0.113.0/24")
	for _, compact := range []bool{false, true} {
		build := func() *Network { return chainNetOn(compact) }
		n := build()
		n.Originate(1, p)
		n.RunToQuiescence()
		data := mustSnapshot(t, n)
		if err := RestoreNetwork(bytes.NewReader(data), build()); err != nil {
			t.Fatalf("compact=%v: the consistent snapshot must restore: %v", compact, err)
		}
		// Speaker 3 holds p from 2; speaker 2 holds it from 1. The edit
		// points 3's entry at 2's route.
		ri := newRouteIndex(n)
		from3, from1 := ri.ribs[2][0][0], ri.ribs[1][0][0]
		if from3.k.neighbor != 2 || from1.k.neighbor != 1 {
			t.Fatalf("compact=%v: adj-RIB-in keys %v and %v, want p from 2 and from 1", compact, from3.k, from1.k)
		}
		entry := func(idx uint32) []byte {
			return encBytes(func(e *snap.Enc) {
				encRibKey(e, from3.k)
				e.Uvarint(uint64(idx))
			})
		}
		edited := editSpeakers(t, data, entry(from3.idx), entry(from1.idx))
		refuseRestore(t, fmt.Sprintf("compact=%v: adj-RIB-in route from another neighbor", compact), edited, build, "holds a route from 1")
	}
}
