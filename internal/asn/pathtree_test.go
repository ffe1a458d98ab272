package asn

import "testing"

// TestPathTree builds two paths that share the origin's run and one
// that shares a whole path, and reads them back with their origin
// prepends and upstream neighbors.
func TestPathTree(t *testing.T) {
	var tr PathTree
	origin := tr.AddRun(30, 3, NoRun) // 30 30 30
	mid := tr.AddRun(20, 1, origin)   // 20 30 30 30
	tr.AddLeaf(tr.AddRun(10, 2, mid)) // 10 10 20 30 30 30
	tr.AddLeaf(mid)
	tr.AddLeaf(origin)
	want := []Path{MustParsePath("10 10 20 30 30 30"), MustParsePath("20 30 30 30"), MustParsePath("30 30 30")}
	if tr.Len() != len(want) || tr.Runs() != 3 {
		t.Fatalf("%d paths over %d runs, want %d over 3", tr.Len(), tr.Runs(), len(want))
	}
	for i, w := range want {
		if got := tr.AppendPath(nil, i); !got.Equal(w) {
			t.Errorf("path %d = %v, want %v", i, got, w)
		}
		if got := tr.PrependCount(i); got != w.PrependCount() {
			t.Errorf("path %d: PrependCount %d, want %d", i, got, w.PrependCount())
		}
		if got := tr.NeighborOfOrigin(i); got != w.NeighborOfOrigin() {
			t.Errorf("path %d: NeighborOfOrigin %d, want %d", i, got, w.NeighborOfOrigin())
		}
	}
	c := tr.Compact()
	if held, used := c.Bytes(); held != used {
		t.Errorf("compact tree holds %d bytes for %d used", held, used)
	}
	if got := c.AppendPath(MustParsePath("1"), 0); !got.Equal(MustParsePath("1 10 10 20 30 30 30")) {
		t.Errorf("compact path 0 appended to [1] = %v", got)
	}
}
