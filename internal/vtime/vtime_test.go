package vtime

import (
	"math/rand"
	"sort"
	"testing"
)

// TestQueueOrdering drains a randomly filled queue and requires
// (At, Seq) dispatch order.
func TestQueueOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q Queue[int]
	const n = 500
	for i := 0; i < n; i++ {
		q.Push(Time(rng.Intn(50)), i)
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	var prev Item[int]
	for i := 0; i < n; i++ {
		it, ok := q.Pop()
		if !ok {
			t.Fatalf("queue empty after %d pops, want %d", i, n)
		}
		if i > 0 && it.before(prev) {
			t.Fatalf("out of order: (%d,%d) after (%d,%d)", it.At, it.Seq, prev.At, prev.Seq)
		}
		prev = it
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue returned ok")
	}
}

// TestQueueStableTies pushes many same-time items and requires FIFO
// dispatch — the determinism contract of the tie-break.
func TestQueueStableTies(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(5, i)
	}
	for i := 0; i < 100; i++ {
		it, _ := q.Pop()
		if it.V != i {
			t.Fatalf("tie dispatch order: got %d at position %d", it.V, i)
		}
	}
}

// TestQueueSorted requires Sorted to return dispatch order without
// disturbing the queue.
func TestQueueSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q Queue[string]
	for i := 0; i < 64; i++ {
		q.Push(Time(rng.Intn(10)), "v")
	}
	s := q.Sorted()
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].before(s[j]) }) {
		t.Fatal("Sorted output not in dispatch order")
	}
	if q.Len() != 64 {
		t.Fatalf("Sorted disturbed the queue: Len = %d", q.Len())
	}
	for i := 0; i < 64; i++ {
		it, _ := q.Pop()
		if it != s[i] {
			t.Fatalf("pop %d: got (%d,%d), Sorted said (%d,%d)", i, it.At, it.Seq, s[i].At, s[i].Seq)
		}
	}
}

// TestQueueRestore rebuilds a queue from shuffled items with explicit
// sequence numbers and requires identical dispatch order plus a
// continued sequence counter.
func TestQueueRestore(t *testing.T) {
	var orig Queue[int]
	for i := 0; i < 40; i++ {
		orig.Push(Time(i%7), i)
	}
	want := orig.Sorted()

	items := append([]Item[int](nil), want...)
	rng := rand.New(rand.NewSource(9))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	var q Queue[int]
	q.Restore(items, orig.Seq())
	if q.Seq() != orig.Seq() {
		t.Fatalf("Seq = %d, want %d", q.Seq(), orig.Seq())
	}
	for i := range want {
		it, _ := q.Pop()
		if it != want[i] {
			t.Fatalf("restored pop %d: got (%d,%d,%d), want (%d,%d,%d)",
				i, it.At, it.Seq, it.V, want[i].At, want[i].Seq, want[i].V)
		}
	}

	q.SetSeq(100)
	if got := q.Push(1, 0); got != 101 {
		t.Fatalf("Push after SetSeq(100) assigned %d, want 101", got)
	}
}
