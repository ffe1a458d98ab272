package pathtab

import (
	"math/rand"
	"testing"

	"repro/internal/asn"
)

func TestEmptyPath(t *testing.T) {
	tab := New()
	if id := tab.Intern(nil); id != Empty {
		t.Fatalf("Intern(nil) = %d, want Empty", id)
	}
	if id := tab.Intern(asn.Path{}); id != Empty {
		t.Fatalf("Intern(empty) = %d, want Empty", id)
	}
	if p := tab.Resolve(Empty); p != nil {
		t.Fatalf("Resolve(Empty) = %v, want nil", p)
	}
	if id, ok := tab.Lookup(nil); !ok || id != Empty {
		t.Fatalf("Lookup(nil) = %d, %v", id, ok)
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d after empty interns, want 0", tab.Len())
	}
}

func TestInternAssignsDenseStableIDs(t *testing.T) {
	tab := New()
	paths := []asn.Path{
		asn.MustParsePath("174 3356 7377"),
		asn.MustParsePath("11537 7377"),
		asn.MustParsePath("174 3356 7377 7377 7377"),
	}
	var ids []ID
	for _, p := range paths {
		ids = append(ids, tab.Intern(p))
	}
	for i, id := range ids {
		if id != ID(i+1) {
			t.Fatalf("path %d got ID %d, want %d (first-intern order)", i, id, i+1)
		}
	}
	// Re-interning equal paths (even via a distinct slice) returns the
	// same ID and does not grow the table.
	for i, p := range paths {
		if id := tab.Intern(p.Clone()); id != ids[i] {
			t.Fatalf("re-intern of path %d = %d, want %d", i, id, ids[i])
		}
	}
	if tab.Len() != len(paths) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(paths))
	}
	for i, p := range paths {
		if got := tab.Resolve(ids[i]); !got.Equal(p) {
			t.Fatalf("Resolve(%d) = %v, want %v", ids[i], got, p)
		}
	}
}

func TestInternCopiesInput(t *testing.T) {
	tab := New()
	p := asn.MustParsePath("1 2 3")
	id := tab.Intern(p)
	p[0] = 99 // caller scribbles over its slice
	if got := tab.Resolve(id); !got.Equal(asn.MustParsePath("1 2 3")) {
		t.Fatalf("canonical path mutated through caller slice: %v", got)
	}
}

func TestResolveIsCanonical(t *testing.T) {
	tab := New()
	id := tab.Intern(asn.MustParsePath("7377 7377"))
	a, b := tab.Resolve(id), tab.Resolve(id)
	if &a[0] != &b[0] {
		t.Fatal("Resolve returned distinct slices for one ID; want the shared canonical slice")
	}
}

func TestLookupDoesNotIntern(t *testing.T) {
	tab := New()
	p := asn.MustParsePath("64500 64501")
	if id, ok := tab.Lookup(p); ok {
		t.Fatalf("Lookup before intern = %d, true", id)
	}
	want := tab.Intern(p)
	if id, ok := tab.Lookup(p); !ok || id != want {
		t.Fatalf("Lookup after intern = %d, %v, want %d, true", id, ok, want)
	}
}

// TestInternHitAllocs pins the hit path at zero allocations: the key is
// built in the table's scratch buffer, and only an insert turns it into
// a string. Every arena Install interns its route's path, so a hit that
// allocated would cost two allocations per installed route.
func TestInternHitAllocs(t *testing.T) {
	tab := New()
	p := asn.MustParsePath("174 3356 7377 7377")
	want := tab.Intern(p)
	q := p.Clone() // an equal path in a distinct slice, as a new route carries
	if got := testing.AllocsPerRun(100, func() {
		if tab.Intern(q) != want {
			t.Fatal("hit returned a different ID")
		}
	}); got != 0 {
		t.Errorf("Intern hit: %.1f allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if id, ok := tab.Lookup(q); !ok || id != want {
			t.Fatal("Lookup missed an interned path")
		}
	}); got != 0 {
		t.Errorf("Lookup: %.1f allocations, want 0", got)
	}
}

func TestResolveUnissuedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Resolve of an unissued ID did not panic")
		}
	}()
	New().Resolve(42)
}

func TestPrefixConfusion(t *testing.T) {
	// Paths that are element-wise prefixes of each other, and paths
	// whose byte encodings could collide under a naive delimiter
	// scheme, must intern to distinct IDs.
	tab := New()
	a := tab.Intern(asn.Path{1})
	b := tab.Intern(asn.Path{1, 0})
	c := tab.Intern(asn.Path{0, 1})
	d := tab.Intern(asn.Path{0x01000000})
	if a == b || b == c || a == c || a == d {
		t.Fatalf("distinct paths shared IDs: %d %d %d %d", a, b, c, d)
	}
}

func TestBytesAccounting(t *testing.T) {
	tab := New()
	if tab.Bytes() != 0 {
		t.Fatalf("empty table Bytes = %d, want 0", tab.Bytes())
	}
	tab.Intern(asn.MustParsePath("1 2 3"))
	one := tab.Bytes()
	if one <= 0 {
		t.Fatalf("Bytes = %d after one intern, want > 0", one)
	}
	tab.Intern(asn.MustParsePath("1 2 3")) // duplicate: no growth
	if tab.Bytes() != one {
		t.Fatalf("Bytes grew on duplicate intern: %d -> %d", one, tab.Bytes())
	}
	tab.Intern(asn.MustParsePath("4 5"))
	if tab.Bytes() <= one {
		t.Fatalf("Bytes did not grow on new intern: %d", tab.Bytes())
	}
}

// TestInternRandomised cross-checks the table against a reference map
// over a workload shaped like the engine's: few distinct paths, many
// repeats, heavy prepending.
func TestInternRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := New()
	ref := make(map[string]ID)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(6)
		p := make(asn.Path, n)
		for j := range p {
			p[j] = asn.AS(rng.Intn(8)) // tiny alphabet forces repeats
		}
		id := tab.Intern(p)
		if n == 0 {
			if id != Empty {
				t.Fatalf("empty path interned to %d", id)
			}
			continue
		}
		k := p.String()
		if want, ok := ref[k]; ok {
			if id != want {
				t.Fatalf("path %q: ID changed %d -> %d", k, want, id)
			}
		} else {
			ref[k] = id
		}
		if got := tab.Resolve(id); !got.Equal(p) {
			t.Fatalf("Resolve(%d) = %v, want %v", id, got, p)
		}
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, reference saw %d distinct paths", tab.Len(), len(ref))
	}
}
