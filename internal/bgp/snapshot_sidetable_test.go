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

// TestRestoreRejectsContradictoryDamping: a speaker's suppressed set
// mirrors its damping states, a key in it exactly when that key's
// state is suppressed. A snapshot of a network whose two disagree —
// here set directly — restored cleanly before, leaving speaker 3 with
// a best route no candidate backs once its neighbor's announcement
// changed; it is corrupt.
func TestRestoreRejectsContradictoryDamping(t *testing.T) {
	p := netutil.MustParsePrefix("203.0.113.0/24")
	k := ribKey{prefix: p, neighbor: 2}
	converged := func() *Network {
		n := chainNet()
		n.Originate(1, p)
		n.RunToQuiescence()
		return n
	}
	if err := RestoreNetwork(bytes.NewReader(mustSnapshot(t, converged())), chainNet()); err != nil {
		t.Fatalf("the consistent snapshot must restore: %v", err)
	}

	n := converged()
	n.speakers[3].suppressed[k] = true
	refuseRestore(t, "suppressed key without damping state", mustSnapshot(t, n), chainNet, "without suppressed damping state")

	n = converged()
	n.speakers[3].rfd[k] = &rfdState{penalty: 3000}
	n.speakers[3].suppressed[k] = true
	refuseRestore(t, "suppressed key over unsuppressed damping state", mustSnapshot(t, n), chainNet, "without suppressed damping state")

	n = converged()
	n.speakers[3].rfd[k] = &rfdState{penalty: 3000, suppressed: true}
	refuseRestore(t, "suppressed damping state outside the set", mustSnapshot(t, n), chainNet, "suppressed damping states")
}

// TestRestoreRejectsContradictoryMRAI: a pending MRAI batch and its
// queued flush timer come and go together (exportToPeer sets the one
// when it queues the other, the flush's delivery clears it). A pending
// key with no timer restored cleanly before and held the session's
// exports back for good; it is corrupt, and so are a timer with no
// pending key and a key with two timers.
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
	// A batch really in flight restores: driveToMidFlight leaves one.
	mid := mraiRfdNet()
	driveToMidFlight(mid)
	if !mid.speakers[1].mraiPending[k] {
		t.Fatal("driveToMidFlight left no MRAI batch pending")
	}
	if err := RestoreNetwork(bytes.NewReader(mustSnapshot(t, mid)), mraiRfdNet()); err != nil {
		t.Fatalf("a snapshot with a batch in flight must restore: %v", err)
	}

	n := converged()
	n.speakers[1].mraiPending[k] = true
	refuseRestore(t, "pending batch without a flush", mustSnapshot(t, n), mraiRfdNet, "has 0 queued flushes")

	n = converged()
	flush(n)
	refuseRestore(t, "flush without a pending batch", mustSnapshot(t, n), mraiRfdNet, "have no pending batch")

	n = converged()
	n.speakers[1].mraiPending[k] = true
	flush(n)
	flush(n)
	refuseRestore(t, "pending batch with two flushes", mustSnapshot(t, n), mraiRfdNet, "has 2 queued flushes")

	// The flush must be the batch's own: same speaker, neighbor and
	// prefix.
	n = converged()
	n.speakers[1].mraiPending[k] = true
	n.queue.Push(vtime.Time(n.clock+40), event{to: 2, from: 1, prefix: p, mrai: true})
	refuseRestore(t, "pending batch with another session's flush", mustSnapshot(t, n), mraiRfdNet, "has 0 queued flushes")
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
		s.rfd[k] = &rfdState{penalty: 3000, suppressed: true}
		s.suppressed[k] = true
		s.medSeen[k.prefix] = true
	}
	data := mustSnapshot(t, n)
	if err := RestoreNetwork(bytes.NewReader(data), chainNet()); err != nil {
		t.Fatalf("the sorted snapshot must restore: %v", err)
	}
	secs, err := snap.DecodeSections(data, snap.EngineMagic, snap.EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	at := slices.IndexFunc(secs, func(s snap.Section) bool { return s.ID == secSpeakers })
	payload := secs[at].Payload
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
	enc := func(f func(*snap.Enc)) []byte {
		var e snap.Enc
		f(&e)
		return e.Bytes()
	}
	key := func(k ribKey) []byte { return enc(func(e *snap.Enc) { encRibKey(e, k) }) }
	pfx := func(p netutil.Prefix) []byte { return enc(func(e *snap.Enc) { e.Prefix(p) }) }
	// Each table's two entries are adjacent in the payload, and nowhere
	// else are those bytes adjacent.
	edit := func(from, to []byte) []byte {
		if c := bytes.Count(payload, from); c != 1 {
			t.Fatalf("entries occur %d times in the speakers section, want 1", c)
		}
		return bytes.Replace(payload, from, to, 1)
	}
	for name, speakers := range map[string][]byte{
		"suppressed swapped":    edit(slices.Concat(key(k1), key(k2)), slices.Concat(key(k2), key(k1))),
		"suppressed duplicated": edit(slices.Concat(key(k1), key(k2)), slices.Concat(key(k1), key(k1))),
		"MED-seen swapped":      edit(slices.Concat(pfx(p1), pfx(p2)), slices.Concat(pfx(p2), pfx(p1))),
		"MED-seen duplicated":   edit(slices.Concat(pfx(p1), pfx(p2)), slices.Concat(pfx(p2), pfx(p2))),
	} {
		refuseRestore(t, name, reseal(speakers), chainNet, "does not sort after")
	}
}
