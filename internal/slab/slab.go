// Package slab allocates many small, long-lived runs of values from a
// few fixed-size chunks: the world builder's hosts and their per-prefix
// lists, the seed catalog's datasets and the selection's targets. One
// allocation serves a chunk's worth of runs instead of one each, and at
// most one chunk per slab is partly unused.
package slab

// Chunk is how many elements one chunk holds (a run longer than that
// gets a chunk of its own).
const Chunk = 256

// Slab hands out runs of consecutive elements. The zero value is ready
// to use. A Slab is not safe for concurrent use.
type Slab[T any] struct {
	free []T
}

// Take returns the next n zeroed elements. The run's capacity is its
// length, so appending to it copies instead of writing into the next
// run.
func (s *Slab[T]) Take(n int) []T {
	if cap(s.free)-len(s.free) < n {
		s.free = make([]T, 0, max(n, Chunk))
	}
	l := len(s.free)
	s.free = s.free[:l+n]
	return s.free[l : l+n : l+n]
}

// Copy returns a run holding a copy of vs.
func (s *Slab[T]) Copy(vs []T) []T {
	run := s.Take(len(vs))
	copy(run, vs)
	return run
}
