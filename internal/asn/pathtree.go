package asn

import "unsafe"

// PathTree holds a list of AS paths that share their tails, as a tree
// of runs. A run is n copies of one AS followed by the path of its
// parent run; a root run is followed by nothing. Each path is a leaf:
// the run holding its nearest AS. Paths toward one origin end alike,
// so a collector's view of an origin stores each common tail once.
// Leaves keep the order they were added in, and several may name the
// same run.
type PathTree struct {
	runs   []pathRun
	leaves []uint32
}

// pathRun is one run of a PathTree.
type pathRun struct {
	as AS
	n  uint32
	up uint32 // 1 + the parent run's index; 0 for a root
}

// NoRun is the parent AddRun takes for a root run.
const NoRun = -1

// Len returns the number of paths (leaves).
func (t *PathTree) Len() int { return len(t.leaves) }

// Runs returns the number of runs the paths share.
func (t *PathTree) Runs() int { return len(t.runs) }

// AddRun adds n copies of a followed by the path of run parent (NoRun
// for none) and returns the new run's index.
func (t *PathTree) AddRun(a AS, n int, parent int) int {
	t.runs = append(t.runs, pathRun{as: a, n: uint32(n), up: uint32(parent + 1)})
	return len(t.runs) - 1
}

// AddLeaf appends the path that begins at run as the tree's next path.
func (t *PathTree) AddLeaf(run int) { t.leaves = append(t.leaves, uint32(run)) }

// AppendPath appends path i, nearest AS first, to dst.
func (t *PathTree) AppendPath(dst Path, i int) Path {
	for r := t.leaves[i] + 1; r != 0; r = t.runs[r-1].up {
		run := t.runs[r-1]
		for k := uint32(0); k < run.n; k++ {
			dst = append(dst, run.as)
		}
	}
	return dst
}

// root returns path i's last run, the origin's, and the run before it
// (the origin's neighbor's), nil if the path holds only the origin.
func (t *PathTree) root(i int) (origin, neighbor *pathRun) {
	for r := t.leaves[i] + 1; r != 0; r = t.runs[r-1].up {
		origin, neighbor = &t.runs[r-1], origin
	}
	return origin, neighbor
}

// PrependCount is Path.PrependCount of path i. Adjacent runs of a path
// hold different ASes, so the origin's copies are its root run.
func (t *PathTree) PrependCount(i int) int {
	origin, _ := t.root(i)
	return int(origin.n) - 1
}

// NeighborOfOrigin is Path.NeighborOfOrigin of path i.
func (t *PathTree) NeighborOfOrigin(i int) AS {
	if _, nb := t.root(i); nb != nil {
		return nb.as
	}
	return None
}

// Reset empties the tree and keeps its memory.
func (t *PathTree) Reset() { t.runs, t.leaves = t.runs[:0], t.leaves[:0] }

// Compact returns a copy of t whose arrays are exactly its size.
func (t *PathTree) Compact() PathTree {
	c := PathTree{runs: make([]pathRun, len(t.runs)), leaves: make([]uint32, len(t.leaves))}
	copy(c.runs, t.runs)
	copy(c.leaves, t.leaves)
	return c
}

// Bytes returns the bytes t's arrays hold, counted by capacity, and
// the bytes its runs and leaves use; they are equal for a Compact tree.
func (t *PathTree) Bytes() (held, used int) {
	const runBytes, leafBytes = int(unsafe.Sizeof(pathRun{})), 4
	return cap(t.runs)*runBytes + cap(t.leaves)*leafBytes, len(t.runs)*runBytes + len(t.leaves)*leafBytes
}
