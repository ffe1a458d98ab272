package vtime

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// refQueue is the binary-heap Queue the bucketed one replaced, kept
// verbatim (bar its name) as the oracle the queue tests compare
// against: a stable min-heap ordered by (At, Seq).
type refQueue[T any] struct {
	h   []Item[T]
	seq uint64 // last assigned sequence number
}

// Len returns the number of pending items.
func (q *refQueue[T]) Len() int { return len(q.h) }

// Push schedules v at time at, assigning the next sequence number, and
// returns the assigned number.
func (q *refQueue[T]) Push(at Time, v T) uint64 {
	q.seq++
	q.h = append(q.h, Item[T]{At: at, Seq: q.seq, V: v})
	q.up(len(q.h) - 1)
	return q.seq
}

// Peek returns the earliest item without removing it.
func (q *refQueue[T]) Peek() (Item[T], bool) {
	if len(q.h) == 0 {
		return Item[T]{}, false
	}
	return q.h[0], true
}

// Pop removes and returns the earliest item.
func (q *refQueue[T]) Pop() (Item[T], bool) {
	if len(q.h) == 0 {
		return Item[T]{}, false
	}
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = Item[T]{} // release V for GC
	q.h = q.h[:last]
	if len(q.h) > 0 {
		q.down(0)
	}
	return top, true
}

// Seq returns the last assigned sequence number.
func (q *refQueue[T]) Seq() uint64 { return q.seq }

// SetSeq overrides the sequence counter; the next Push assigns s+1.
// Used when restoring a snapshotted queue.
func (q *refQueue[T]) SetSeq(s uint64) { q.seq = s }

// Sorted returns a copy of the pending items in dispatch order
// ((At, Seq) ascending) without disturbing the queue — the canonical
// traversal snapshot serialization uses.
func (q *refQueue[T]) Sorted() []Item[T] {
	out := make([]Item[T], len(q.h))
	copy(out, q.h)
	sort.Slice(out, func(i, j int) bool { return out[i].before(out[j]) })
	return out
}

// Restore replaces the queue's contents with items carrying explicit
// (At, Seq) pairs and sets the sequence counter to seq. The items are
// heapified, so any input order yields the same dispatch order.
func (q *refQueue[T]) Restore(items []Item[T], seq uint64) {
	q.h = append(q.h[:0], items...)
	q.seq = seq
	for i := len(q.h)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// up restores the heap invariant after appending at index i.
func (q *refQueue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].before(q.h[parent]) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// down restores the heap invariant after replacing index i.
func (q *refQueue[T]) down(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && q.h[l].before(q.h[least]) {
			least = l
		}
		if r < n && q.h[r].before(q.h[least]) {
			least = r
		}
		if least == i {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}

// checkQueueOps drives a Queue and the reference heap through the same
// operations, decoded from data, and fails on the first difference in
// what they return. Each op byte picks Push (at the head's time, the
// previous push's, a near-future one, a far-future one, one earlier
// than the head, or one anywhere in the next 65,536 seconds), Pop,
// Peek, Sorted, Restore from Sorted output or from a shuffled copy, or
// a forward SetSeq.
func checkQueueOps(t testing.TB, data []byte) {
	var q Queue[int]
	var ref refQueue[int]
	var now, lastAt Time
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	same := func(op string, got, want Item[int], gotOK, wantOK bool) {
		t.Helper()
		if got != want || gotOK != wantOK {
			t.Fatalf("%s: queue (%d,%d,%d,%v), reference (%d,%d,%d,%v)",
				op, got.At, got.Seq, got.V, gotOK, want.At, want.Seq, want.V, wantOK)
		}
	}
	sameSorted := func(op string) []Item[int] {
		t.Helper()
		got, want := q.Sorted(), ref.Sorted()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Sorted differs:\nqueue     %v\nreference %v", op, got, want)
		}
		return want
	}
	for v := 0; len(data) > 0; v++ {
		switch next() % 11 {
		case 0, 1, 2, 3:
			var at Time
			switch next() % 6 {
			case 0:
				at = lastAt
			case 1:
				if head, ok := ref.Peek(); ok {
					at = head.At
				}
			case 2:
				at = now + Time(next()%8)
			case 3:
				at = now + 1<<40 + Time(next()%4)
			case 4:
				at = now - 1 - Time(next()%4)
			case 5:
				at = now + Time(next()<<8|next())
			}
			lastAt = at
			if got, want := q.Push(at, v), ref.Push(at, v); got != want {
				t.Fatalf("Push(%d): queue assigned seq %d, reference %d", at, got, want)
			}
		case 4, 5:
			got, gotOK := q.Pop()
			want, wantOK := ref.Pop()
			same("Pop", got, want, gotOK, wantOK)
			if wantOK && want.At > now {
				now = want.At
			}
		case 6:
			got, gotOK := q.Peek()
			want, wantOK := ref.Peek()
			same("Peek", got, want, gotOK, wantOK)
		case 7:
			sameSorted("Sorted")
		case 8:
			items := sameSorted("Restore from Sorted")
			q.Restore(items, ref.Seq())
			ref.Restore(items, ref.Seq())
		case 9:
			items := sameSorted("Restore from shuffle")
			for i := len(items) - 1; i > 0; i-- {
				j := next() % (i + 1)
				items[i], items[j] = items[j], items[i]
			}
			q.Restore(slices.Clone(items), ref.Seq())
			ref.Restore(items, ref.Seq())
		case 10:
			s := ref.Seq() + uint64(next()%3)
			q.SetSeq(s)
			ref.SetSeq(s)
		}
		if q.Len() != ref.Len() || q.Seq() != ref.Seq() {
			t.Fatalf("queue Len %d Seq %d, reference Len %d Seq %d", q.Len(), q.Seq(), ref.Len(), ref.Seq())
		}
	}
	for ref.Len() > 0 {
		got, gotOK := q.Pop()
		want, wantOK := ref.Pop()
		same("drain", got, want, gotOK, wantOK)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue still holds items after the reference drained")
	}
}

// TestQueueMatchesReference runs random operation streams through the
// bucketed queue and the binary heap it replaced: identical items, in
// identical order, from every Pop, Peek and Sorted.
func TestQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for run := 0; run < 300; run++ {
		data := make([]byte, 50+rng.Intn(2000))
		rng.Read(data)
		checkQueueOps(t, data)
	}
	// Long runs of pushes spread over many due times and pops: hundreds
	// of buckets pending at once, so the time index grows, collides and
	// deletes from the middle of its probe runs.
	for run := 0; run < 20; run++ {
		var data []byte
		for i := 0; i < 20000; i++ {
			if rng.Intn(9) < 5 {
				data = append(data, 0, 5, byte(rng.Intn(256)), byte(rng.Intn(256)))
			} else {
				data = append(data, 4)
			}
		}
		checkQueueOps(t, data)
	}
}

// FuzzQueueMatchesReference is TestQueueMatchesReference over
// arbitrary operation streams.
func FuzzQueueMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 3, 4, 1, 1, 4, 6, 7, 8, 4, 4})
	f.Add([]byte{3, 4, 0, 3, 3, 1, 0, 2, 5, 2, 9, 1, 0, 10, 1, 0, 0, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) { checkQueueOps(t, data) })
}

// TestQueueSteadyStateAllocs: once the queue has held its peak, pushes
// and pops over a rolling window of due times allocate nothing, both
// for pointer-free items shaped like the BGP engine's events and for
// the workload engine's handlers.
func TestQueueSteadyStateAllocs(t *testing.T) {
	type event struct { // bgp.event's shape
		to, from uint32
		prefix   uint64
		route    uint32
		rfd      bool
		mrai     bool
	}
	t.Run("event", func(t *testing.T) { steadyStateAllocs(t, event{to: 1}) })
	t.Run("handler", func(t *testing.T) { steadyStateAllocs(t, Handler(func(Time) {})) })
}

func steadyStateAllocs[T any](t *testing.T, v T) {
	var q Queue[T]
	var now Time
	step := func() {
		// Most items are due one hop from now, a few at the far edge
		// of a 64-second window; then the clock moves on one second.
		for i := 0; i < 24; i++ {
			q.Push(now+1, v)
		}
		for i := Time(0); i < 4; i++ {
			q.Push(now+2+(now*7+i)%62, v)
		}
		now++
		for {
			it, ok := q.Peek()
			if !ok || it.At > now {
				break
			}
			q.Pop()
		}
	}
	// The warm-up outlasts the time index's last growth: deleting from
	// a Go map leaves tombstones, so it can grow once more after the
	// slab has peaked. Allocations are then counted per window of
	// steps rather than per step (AllocsPerRun rounds down), each
	// window as long as every step before it. MemStats counts the whole
	// process, so another goroutine of the test binary can allocate
	// inside a window now and then; the test fails only when every
	// window allocates. A per-step allocation does, and so does a slice
	// that grows with the steps taken: it doubles, and so reallocates,
	// within each window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	steps := 4096
	for i := 0; i < steps; i++ {
		step()
	}
	var mallocs []uint64
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		mallocs = append(mallocs, after.Mallocs-before.Mallocs)
		steps *= 2
	}
	if slices.Min(mallocs) != 0 {
		t.Fatalf("steady-state windows of 4096, 8192 and 16384 steps allocate %v times, want 0 in at least one (pending %d)",
			mallocs, q.Len())
	}
}
