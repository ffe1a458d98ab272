package bgp

// The undo journal: rewinding a network to a fork point by undoing
// what changed since, instead of restoring a snapshot of everything.
//
// OpenJournal marks the fork point. While the journal is open, every
// write to a speaker's dynamic state first records what it overwrites —
// (table, key, previous value) — and Rewind replays those records in
// reverse, so a rewind costs what the writes since the fork cost, not
// what the network holds. The network-wide scalars and the small
// queues (clock, event queue, in-flight route slots, work counters,
// churn log) are saved once, by value, at open, and copied back on
// every rewind. The dirty queue is not among them: OpenJournal and
// Rewind refuse to run inside a Batch, and outside one it is empty.
//
// What is recorded, and where:
//
//   - RIB entries, inside the stores: a row table records the view,
//     the key and the previous *Route (exact pointers, because a
//     snapshot numbers routes per distinct pointer), and the rewind
//     puts it back through the table without recording; an arena store
//     records the previous packed record, so recording materialises
//     nothing.
//   - The speaker tables originated, rfd, mrai and medSeen, at their
//     write sites. Each holds plain values, so the previous value is
//     the whole record; an rfd record also keeps the speaker's count
//     of suppressed states, which the undo puts back with it.
//   - Session settings: each setter records the whole PeerConfig
//     before changing it (ExportPrepend, PrefixPrepend, ExportAllow,
//     ImportLocalPref, down), and SetImportDeny the speaker's filter.
//
// The logs are independent — each speaker table has one log of its
// own, and no map appears in two — so Rewind replays them one after
// another, each in reverse. Topology is not journaled: AddSpeaker and
// Connect panic while a journal is open, and RestoreNetwork refuses
// such a network. Telemetry counters and the per-update scratch
// (candidate buffer, prepend memo) are not network state and are left
// alone. With no journal open each hook is one nil check.

import (
	"errors"

	"repro/internal/netutil"
	"repro/internal/vtime"
)

// journal is an open undo journal (see the file comment).
type journal struct {
	rows     []rowUndo    // row-table RIB entries
	packed   []packedUndo // arena-store RIB entries
	orig     keyedLog[netutil.Prefix, origination]
	mrai     keyedLog[ribKey, mraiState]
	medSeen  keyedLog[netutil.Prefix, bool]
	prepends keyedLog[netutil.Prefix, int] // PeerConfig.PrefixPrepend
	rfd      []rfdUndo
	peers    []peerUndo
	denies   []denyUndo

	// The fork point's scalars and queues, saved at open.
	clock           Time
	queue           []vtime.Item[event]
	seq             uint64
	inflight        []*Route
	freeSlots       []uint32
	eventsProcessed int
	inc             IncStats
	defaultDelay    Time
	churn           ChurnLog
}

// keyedUndo is the value (*m)[k] held before a write; ok is false when
// k was absent. It keeps the map's field, not the map: the write may be
// the one that makes it (setEntry).
type keyedUndo[K comparable, V any] struct {
	m  *map[K]V
	k  K
	v  V
	ok bool
}

type keyedLog[K comparable, V any] []keyedUndo[K, V]

// save records (*m)[k] ahead of a write to it.
func (l *keyedLog[K, V]) save(m *map[K]V, k K) {
	v, ok := (*m)[k]
	*l = append(*l, keyedUndo[K, V]{m, k, v, ok})
}

// undo puts the recorded value back.
func (u *keyedUndo[K, V]) undo() {
	if u.ok {
		setEntry(u.m, u.k, u.v)
	} else {
		delete(*u.m, u.k)
	}
}

// setEntry writes (*m)[k] = v, making the map on its first write. Every
// write to a speaker's side tables (originated, rfd, mrai, medSeen) and
// to a session's PrefixPrepend goes through it, so a table nothing
// writes is never made.
func setEntry[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// undo puts every recorded value back.
func (l *keyedLog[K, V]) undo() { replay((*[]keyedUndo[K, V])(l), (*keyedUndo[K, V]).undo) }

// replay undoes every entry of *log, newest first, and empties the log,
// keeping its backing array for the next round.
func replay[T any](log *[]T, undo func(*T)) {
	s := *log
	for i := len(s) - 1; i >= 0; i-- {
		undo(&s[i])
	}
	clear(s)
	*log = s[:0]
}

// rowUndo is what a row table held under key on the view's side
// before a write (nil: nothing).
type rowUndo struct {
	v    *rowView
	k    ribKey
	prev *Route
}

// undo puts the entry back, recording nothing.
func (u *rowUndo) undo() { u.v.t.set(u.v.side, u.k, u.prev, false) }

// packedUndo is an arena store's entry under key before a write.
type packedUndo struct {
	st    *arenaStore
	key   uint64
	rec   packedRoute
	comms CommunitySet
	ok    bool
}

// undo puts the entry back, recording nothing.
func (u *packedUndo) undo() {
	if u.ok {
		u.st.put(u.key, u.rec, u.comms)
	} else {
		u.st.drop(u.key)
	}
}

// rfdUndo is s.rfd[k] before a write, and s's count of suppressed
// states then.
type rfdUndo struct {
	keyedUndo[ribKey, rfdState]
	s           *Speaker
	nSuppressed int
}

func (u *rfdUndo) undo() {
	u.keyedUndo.undo()
	u.s.nSuppressed = u.nSuppressed
}

type peerUndo struct {
	pc *PeerConfig
	v  PeerConfig
}

type denyUndo struct {
	s  *Speaker
	fn func(*Route) bool
}

// OpenJournal makes the network's current state the fork point that
// Rewind returns to. Like Snapshot it is an error inside a Batch, and
// a second OpenJournal before CloseJournal is an error too.
func (n *Network) OpenJournal() error {
	if n.batchDepth != 0 {
		return errors.New("bgp: OpenJournal called inside Batch")
	}
	if n.jr != nil {
		return errors.New("bgp: journal already open")
	}
	j := &journal{
		clock:           n.clock,
		queue:           n.queue.Sorted(),
		seq:             n.queue.Seq(),
		inflight:        append([]*Route(nil), n.inflight...),
		freeSlots:       append([]uint32(nil), n.freeSlots...),
		eventsProcessed: n.eventsProcessed,
		inc:             n.inc,
		defaultDelay:    n.DefaultDelay,
		churn:           n.Churn,
	}
	n.setJournal(j)
	return nil
}

// CloseJournal stops recording; the network keeps its current state.
func (n *Network) CloseJournal() { n.setJournal(nil) }

func (n *Network) setJournal(j *journal) {
	n.jr = j
	for _, s := range n.speakers {
		s.adjIn.setJournal(j)
		s.locRib.setJournal(j)
		s.adjOut.setJournal(j)
	}
}

// Rewind returns the network to the state it had at OpenJournal and
// leaves the journal open and empty, ready for the next round.
func (n *Network) Rewind() error {
	j := n.jr
	if j == nil {
		return errors.New("bgp: Rewind without an open journal")
	}
	if n.batchDepth != 0 {
		return errors.New("bgp: Rewind called inside Batch")
	}
	replay(&j.rows, (*rowUndo).undo)
	replay(&j.packed, (*packedUndo).undo)
	j.orig.undo()
	j.mrai.undo()
	j.medSeen.undo()
	j.prepends.undo()
	replay(&j.rfd, (*rfdUndo).undo)
	replay(&j.peers, func(u *peerUndo) { *u.pc = u.v })
	replay(&j.denies, func(u *denyUndo) { u.s.importDeny = u.fn })
	n.gen++

	n.clock = j.clock
	n.queue.Restore(j.queue, j.seq)
	grown := len(n.inflight)
	n.inflight = append(n.inflight[:0], j.inflight...)
	if grown > len(n.inflight) {
		clear(n.inflight[len(n.inflight):grown])
	}
	n.freeSlots = append(n.freeSlots[:0], j.freeSlots...)
	n.eventsProcessed = j.eventsProcessed
	n.inc = j.inc
	n.DefaultDelay = j.defaultDelay
	n.Churn = j.churn
	return nil
}

// savePeer records pc ahead of a setter's change to it and moves the
// network's generation: every setter's write to a PeerConfig comes
// through here.
func (n *Network) savePeer(pc *PeerConfig) {
	n.gen++
	if n.jr != nil {
		n.jr.peers = append(n.jr.peers, peerUndo{pc, *pc})
	}
}

// saveRFD records s.rfd[k] and the suppressed count ahead of a write.
func (s *Speaker) saveRFD(k ribKey) {
	v, ok := s.rfd[k]
	s.net.jr.rfd = append(s.net.jr.rfd, rfdUndo{keyedUndo[ribKey, rfdState]{&s.rfd, k, v, ok}, s, s.nSuppressed})
}

// save records the arena entry under key ahead of a write to it.
func (st *arenaStore) save(key uint64) {
	u := packedUndo{st: st, key: key}
	if slot, ok := st.find(key); ok {
		u.rec, u.ok = st.ar.recs[slot], true
		if u.rec.flags&prFlagHasComms != 0 {
			u.comms = st.ar.comms[slot]
		}
	}
	j := st.ar.be.jr
	j.packed = append(j.packed, u)
}
