// Package vtime is the deterministic discrete-event core of the
// reproduction: a stable time-bucketed event queue whose ties break by
// insertion sequence number, and an Engine that dispatches handler
// callbacks in (time, seq) order on a clock that only moves forward,
// while keeping an external simulator (the BGP engine) coupled to it.
//
// Determinism is the design constraint everything else follows from.
// The queue's dispatch order — (At, Seq) — is fixed by the type and
// cannot be accidentally weakened to time-only ordering: two events
// scheduled for the same instant always dispatch in the order they
// were scheduled, on every run, at any worker width. The BGP engine's
// in-flight update queue, the workload engine's handler queue and the
// workload flappers share this one implementation, so both sides of
// the coupling obey the identical tie-break.
package vtime

import (
	"cmp"
	"slices"
)

// Time is a virtual timestamp in seconds since the experiment epoch,
// unit-compatible with bgp.Time (both are int64 second counts; the
// packages keep distinct named types so conversions stay visible).
type Time int64

// Item is one queue entry: a value due at a virtual time, with the
// insertion sequence number that breaks same-time ties.
type Item[T any] struct {
	At  Time
	Seq uint64
	V   T
}

// before is the queue's total order: earlier time first, then earlier
// insertion.
func (it Item[T]) before(other Item[T]) bool {
	if it.At != other.At {
		return it.At < other.At
	}
	return it.Seq < other.Seq
}

// Queue is a stable priority queue of timed items: Pop returns the
// earliest, and items due at one time come out in Push order. The zero
// value is an empty queue ready for use. Not safe for concurrent use;
// the schedulers built on it are single-threaded by design
// (parallelism in the reproduction lives in the probe/classify shards,
// never in event dispatch).
//
// Items due at one time form a bucket, a FIFO threaded by index
// through one slab of nodes; a binary min-heap orders the buckets, one
// entry per distinct due time. Sequence numbers only grow, so Push
// order within a bucket is Seq order and the dispatch order is exactly
// (At, Seq). A push finds its bucket in a small direct-mapped cache
// indexed by the low bits of its time — the common case, since most
// events are due a few seconds from now — and otherwise finds or opens
// it through a hash index of the pending times; a pop takes a bucket's
// head and touches the heap and the index only when that empties it.
// Nothing is freed: spare nodes and buckets are reused, and the index
// deletes without leaving tombstones, so once the queue has held its
// peak it allocates no more. Node, bucket, heap entry and index hold
// no pointers of their own, so for a pointer-free T the garbage
// collector never scans the queue and storing or moving an entry needs
// no write barrier.
type Queue[T any] struct {
	nodes   []node[T] // slab; index 0 is unused so 0 can mean none
	free    int32     // head of the spare-node list threaded through next
	buckets []bucket  // index 0 is unused likewise
	spare   []int32   // drained buckets
	heap    []heapEntry
	index   []int32 // hash set of the heap's buckets by time (see home)
	recent  [recentSize]int32
	n       int
	seq     uint64 // last assigned sequence number
}

// recentSize is the size of Queue.recent, the bucket cache a push
// tries before the time index: slot at mod recentSize holds the bucket
// most recently used for a time of that residue, so times less than
// recentSize apart never evict one another. A slot may name a drained
// or reused bucket; put checks the bucket before trusting it.
const recentSize = 64

// node is one pending item, or a spare one on the free list.
type node[T any] struct {
	seq  uint64
	next int32 // next node of the bucket (or of the free list); 0 ends it
	v    T
}

// bucket is the FIFO of the items due at one time.
type bucket struct {
	at         Time
	head, tail int32
}

// heapEntry places bucket b, due at at, in the heap.
type heapEntry struct {
	at Time
	b  int32
}

// Len returns the number of pending items.
func (q *Queue[T]) Len() int { return q.n }

// Push schedules v at time at, assigning the next sequence number, and
// returns the assigned number.
func (q *Queue[T]) Push(at Time, v T) uint64 {
	q.seq++
	q.put(at, q.seq, v)
	return q.seq
}

// put appends (seq, v) to the bucket of time at.
func (q *Queue[T]) put(at Time, seq uint64, v T) {
	r := &q.recent[at&(recentSize-1)]
	b := *r
	if b == 0 || q.buckets[b].head == 0 || q.buckets[b].at != at {
		b = q.bucketAt(at)
		*r = b
	}
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
	} else {
		if len(q.nodes) == 0 {
			q.nodes = append(q.nodes, node[T]{})
		}
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, node[T]{})
	}
	q.nodes[i] = node[T]{seq: seq, v: v}
	bk := &q.buckets[b]
	if bk.tail == 0 {
		bk.head = i
	} else {
		q.nodes[bk.tail].next = i
	}
	bk.tail = i
	q.n++
}

// bucketAt returns the bucket of time at, opening one if none is
// pending.
func (q *Queue[T]) bucketAt(at Time) int32 {
	if b := q.find(at); b != 0 {
		return b
	}
	var b int32
	if k := len(q.spare); k > 0 {
		b = q.spare[k-1]
		q.spare = q.spare[:k-1]
	} else {
		if len(q.buckets) == 0 {
			q.buckets = append(q.buckets, bucket{})
		}
		b = int32(len(q.buckets))
		q.buckets = append(q.buckets, bucket{})
	}
	q.buckets[b] = bucket{at: at}
	q.heap = append(q.heap, heapEntry{at, b})
	q.up(len(q.heap) - 1)
	if 2*len(q.heap) > len(q.index) {
		q.reindex(max(recentSize, 2*len(q.index)))
	} else {
		q.insert(b)
	}
	return b
}

// The index is a linear-probing hash table of bucket numbers, at most
// half full, keyed by each bucket's time; 0 marks an empty slot.

// home is the slot time at hashes to.
func (q *Queue[T]) home(at Time) int {
	return int(uint64(at)*0x9E3779B97F4A7C15>>32) & (len(q.index) - 1)
}

// find returns the pending bucket of time at, or 0.
func (q *Queue[T]) find(at Time) int32 {
	if len(q.index) == 0 {
		return 0
	}
	for i := q.home(at); ; i = (i + 1) & (len(q.index) - 1) {
		if b := q.index[i]; b == 0 || q.buckets[b].at == at {
			return b
		}
	}
}

// insert indexes bucket b, whose time is not yet indexed.
func (q *Queue[T]) insert(b int32) {
	i := q.home(q.buckets[b].at)
	for q.index[i] != 0 {
		i = (i + 1) & (len(q.index) - 1)
	}
	q.index[i] = b
}

// reindex rebuilds the index over the heap's buckets with size slots.
func (q *Queue[T]) reindex(size int) {
	if size > cap(q.index) {
		q.index = make([]int32, size)
	} else {
		q.index = q.index[:size]
		clear(q.index)
	}
	for _, h := range q.heap {
		q.insert(h.b)
	}
}

// unindex removes time at from the index and shifts back the entries
// that probed past its slot, so no tombstone is left behind.
func (q *Queue[T]) unindex(at Time) {
	mask := len(q.index) - 1
	i := q.home(at)
	for q.buckets[q.index[i]].at != at {
		i = (i + 1) & mask
	}
	for j := i; ; {
		q.index[i] = 0
		for {
			j = (j + 1) & mask
			b := q.index[j]
			if b == 0 {
				return
			}
			// b may fill the hole at i unless its home slot lies
			// cyclically in (i, j].
			if home := q.home(q.buckets[b].at); (j-home)&mask >= (j-i)&mask {
				q.index[i] = b
				i = j
				break
			}
		}
	}
}

// Peek returns the earliest item without removing it.
func (q *Queue[T]) Peek() (Item[T], bool) {
	if q.n == 0 {
		return Item[T]{}, false
	}
	bk := &q.buckets[q.heap[0].b]
	nd := &q.nodes[bk.head]
	return Item[T]{At: bk.at, Seq: nd.seq, V: nd.v}, true
}

// Pop removes and returns the earliest item.
func (q *Queue[T]) Pop() (Item[T], bool) {
	if q.n == 0 {
		return Item[T]{}, false
	}
	b := q.heap[0].b
	bk := &q.buckets[b]
	i := bk.head
	nd := &q.nodes[i]
	it := Item[T]{At: bk.at, Seq: nd.seq, V: nd.v}
	bk.head = nd.next
	*nd = node[T]{next: q.free} // release V for GC
	q.free = i
	q.n--
	if bk.head == 0 {
		q.unindex(bk.at)
		q.spare = append(q.spare, b)
		last := len(q.heap) - 1
		q.heap[0] = q.heap[last]
		q.heap = q.heap[:last]
		if last > 0 {
			q.down(0)
		}
	}
	return it, true
}

// Seq returns the last assigned sequence number.
func (q *Queue[T]) Seq() uint64 { return q.seq }

// SetSeq overrides the sequence counter; the next Push assigns s+1.
// Used when restoring a snapshotted queue. s must be at least every
// pending item's Seq (the counter only grows); below that, a later
// push at a pending time dispatches after the items already there
// rather than in Seq order.
func (q *Queue[T]) SetSeq(s uint64) { q.seq = s }

// Sorted returns a copy of the pending items in dispatch order
// ((At, Seq) ascending) without disturbing the queue — the canonical
// traversal snapshot serialization uses.
func (q *Queue[T]) Sorted() []Item[T] {
	order := slices.Clone(q.heap)
	slices.SortFunc(order, func(a, b heapEntry) int { return cmp.Compare(a.at, b.at) })
	out := make([]Item[T], 0, q.n)
	for _, h := range order {
		for i := q.buckets[h.b].head; i != 0; i = q.nodes[i].next {
			out = append(out, Item[T]{At: h.at, Seq: q.nodes[i].seq, V: q.nodes[i].v})
		}
	}
	return out
}

// Restore replaces the queue's contents with items carrying explicit
// (At, Seq) pairs and sets the sequence counter to seq, which must be
// at least every item's Seq (see SetSeq). Any input order yields the
// same dispatch order; input already in dispatch order (what Sorted
// returns) is taken as it is, other input is sorted in a copy.
func (q *Queue[T]) Restore(items []Item[T], seq uint64) {
	clear(q.nodes) // release every V for GC
	q.nodes, q.free = q.nodes[:0], 0
	q.buckets, q.spare, q.heap = q.buckets[:0], q.spare[:0], q.heap[:0]
	clear(q.index)
	q.recent, q.n = [recentSize]int32{}, 0
	order := func(a, b Item[T]) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	}
	if !slices.IsSortedFunc(items, order) {
		items = slices.Clone(items)
		slices.SortStableFunc(items, order)
	}
	for _, it := range items {
		q.put(it.At, it.Seq, it.V)
	}
	q.seq = seq
}

// up restores the heap invariant after appending at index i.
func (q *Queue[T]) up(i int) {
	h := q.heap
	for i > 0 {
		parent := (i - 1) / 2
		if h[i].at >= h[parent].at {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// down restores the heap invariant after replacing index i.
func (q *Queue[T]) down(i int) {
	h := q.heap
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l].at < h[least].at {
			least = l
		}
		if r < n && h[r].at < h[least].at {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
