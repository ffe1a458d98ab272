package slab

import "testing"

func TestTakeRunsAreDisjointAndCapped(t *testing.T) {
	var s Slab[int]
	var runs [][]int
	for i := 0; i < 3*Chunk; i++ {
		n := i % 4
		run := s.Take(n)
		if len(run) != n || cap(run) != n {
			t.Fatalf("Take(%d): len %d cap %d", n, len(run), cap(run))
		}
		for j := range run {
			if run[j] != 0 {
				t.Fatalf("Take(%d)[%d] = %d, want zeroed", n, j, run[j])
			}
			run[j] = i
		}
		runs = append(runs, run)
	}
	// Appending to a run must not write into its neighbour.
	runs[1] = append(runs[1], -1)
	for i, run := range runs {
		for _, v := range run {
			if v != i && !(i == 1 && v == -1) {
				t.Fatalf("run %d holds %d: runs overlap", i, v)
			}
		}
	}
}

func TestTakeLongRun(t *testing.T) {
	var s Slab[byte]
	s.Take(1)
	if run := s.Take(Chunk + 1); len(run) != Chunk+1 {
		t.Fatalf("Take(%d) returned %d elements", Chunk+1, len(run))
	}
	if run := s.Copy([]byte("abc")); string(run) != "abc" || cap(run) != 3 {
		t.Fatalf("Copy = %q cap %d", run, cap(run))
	}
}

func TestChunkAllocations(t *testing.T) {
	var s Slab[[3]int]
	allocs := testing.AllocsPerRun(10, func() {
		s = Slab[[3]int]{}
		for i := 0; i < 2*Chunk; i++ {
			s.Take(1)
		}
	})
	if allocs != 2 {
		t.Errorf("%d one-element runs: %v allocations, want 2 chunks", 2*Chunk, allocs)
	}
}
