package asn

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParsePath(t *testing.T) {
	tests := []struct {
		in      string
		want    Path
		wantErr bool
	}{
		{"", nil, false},
		{"   ", nil, false},
		{"174", Path{174}, false},
		{"174 3356 2152 7377", Path{174, 3356, 2152, 7377}, false},
		{"  3754   11537 2152 7377 ", Path{3754, 11537, 2152, 7377}, false},
		{"4294967295", Path{4294967295}, false},
		{"4294967296", nil, true}, // overflows 32 bits
		{"12x", nil, true},
		{"-1", nil, true},
	}
	for _, tt := range tests {
		got, err := ParsePath(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParsePath(%q) err=%v wantErr=%v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && !got.Equal(tt.want) {
			t.Errorf("ParsePath(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestMustParsePathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParsePath did not panic on bad input")
		}
	}()
	MustParsePath("not a path")
}

func TestPathString(t *testing.T) {
	if got := (Path{}).String(); got != "" {
		t.Errorf("empty path String = %q, want empty", got)
	}
	p := Path{3754, 11537, 2152, 7377}
	if got := p.String(); got != "3754 11537 2152 7377" {
		t.Errorf("String = %q", got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		p := make(Path, len(raw))
		for i, v := range raw {
			p[i] = AS(v)
		}
		got, err := ParsePath(p.String())
		return err == nil && got.Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOriginFirst(t *testing.T) {
	p := MustParsePath("174 3356 2152 7377")
	if p.Origin() != 7377 {
		t.Errorf("Origin = %v, want 7377", p.Origin())
	}
	if p.First() != 174 {
		t.Errorf("First = %v, want 174", p.First())
	}
	var empty Path
	if empty.Origin() != None || empty.First() != None {
		t.Error("empty path Origin/First should be None")
	}
}

func TestContains(t *testing.T) {
	p := MustParsePath("174 3356 2152 7377")
	for _, a := range p {
		if !p.Contains(a) {
			t.Errorf("Contains(%v) = false", a)
		}
	}
	if p.Contains(11537) {
		t.Error("Contains(11537) = true, want false")
	}
}

func TestPrepend(t *testing.T) {
	p := MustParsePath("2152 7377")
	got := p.Prepend(11537, 3)
	want := MustParsePath("11537 11537 11537 2152 7377")
	if !got.Equal(want) {
		t.Errorf("Prepend = %v, want %v", got, want)
	}
	// The receiver must be unchanged.
	if !p.Equal(MustParsePath("2152 7377")) {
		t.Errorf("Prepend mutated receiver: %v", p)
	}
	// n <= 0 copies.
	got = p.Prepend(11537, 0)
	if !got.Equal(p) {
		t.Errorf("Prepend(n=0) = %v, want %v", got, p)
	}
	got = p.Prepend(11537, -5)
	if !got.Equal(p) {
		t.Errorf("Prepend(n=-5) = %v, want %v", got, p)
	}
}

func TestPrependProperties(t *testing.T) {
	// Prepending preserves the origin and extends length by n.
	f := func(raw []uint32, a uint32, n uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p := make(Path, len(raw))
		for i, v := range raw {
			p[i] = AS(v)
		}
		k := int(n % 8)
		q := p.Prepend(AS(a), k)
		if q.Len() != p.Len()+k {
			return false
		}
		if q.Origin() != p.Origin() {
			return false
		}
		if k > 0 && q.First() != AS(a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := MustParsePath("1 2 3")
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Error("Clone shares storage with receiver")
	}
	var nilPath Path
	if nilPath.Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

func TestUnique(t *testing.T) {
	p := MustParsePath("11537 11537 2152 2152 2152 7377")
	got := p.AppendUnique(nil)
	want := MustParsePath("11537 2152 7377")
	if !got.Equal(want) {
		t.Errorf("AppendUnique = %v, want %v", got, want)
	}
}

// uniqueBySet is AppendUnique as a set of seen ASes: the definition the
// scan is held to.
func uniqueBySet(p Path) Path {
	seen := make(map[AS]bool, len(p))
	out := make(Path, 0, len(p))
	for _, a := range p {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// TestUniqueMatchesSet holds AppendUnique equal to uniqueBySet on
// seeded random paths: prepended runs, and poisoned paths that repeat
// an AS further back. Appended after another path, it must dedupe
// against its own hops only.
func TestUniqueMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(36)) // #nosec test randomness
	poisoned := 0
	for trial := 0; trial < 5000; trial++ {
		var p Path
		hops := rng.Intn(64)
		for len(p) < hops {
			var a AS
			if len(p) > 1 && rng.Intn(6) == 0 {
				a = p[rng.Intn(len(p)-1)] // poison: an AS seen before the last
				poisoned++
			} else {
				a = AS(1 + rng.Intn(40))
			}
			for run := 1 + rng.Intn(3); run > 0; run-- {
				p = append(p, a)
			}
		}
		want := uniqueBySet(p)
		if got := p.AppendUnique(nil); !got.Equal(want) {
			t.Fatalf("AppendUnique(%v) = %v, want %v", p, got, want)
		}
		if got := p.AppendUnique(p[:len(p):len(p)]); !got[len(p):].Equal(want) || !got[:len(p)].Equal(p) {
			t.Fatalf("AppendUnique(%v) after the path itself = %v, want it followed by %v", p, got, want)
		}
	}
	if poisoned == 0 {
		t.Fatal("no poisoned path generated")
	}
}

func TestPrependCount(t *testing.T) {
	tests := []struct {
		path string
		want int
	}{
		{"", 0},
		{"7377", 0},
		{"2152 7377", 0},
		{"2152 7377 7377", 1},
		{"2152 7377 7377 7377 7377", 3},
		{"7377 2152 7377 7377", 1}, // only the tail run counts
	}
	for _, tt := range tests {
		p := MustParsePath(tt.path)
		if got := p.PrependCount(); got != tt.want {
			t.Errorf("PrependCount(%q) = %d, want %d", tt.path, got, tt.want)
		}
	}
}

func TestNeighborOfOrigin(t *testing.T) {
	tests := []struct {
		path string
		want AS
	}{
		{"", None},
		{"7377", None},
		{"7377 7377", None},
		{"2152 7377", 2152},
		{"11537 2152 7377 7377 7377", 2152},
	}
	for _, tt := range tests {
		p := MustParsePath(tt.path)
		if got := p.NeighborOfOrigin(); got != tt.want {
			t.Errorf("NeighborOfOrigin(%q) = %v, want %v", tt.path, got, tt.want)
		}
	}
}

func TestPrependCountMatchesPrepend(t *testing.T) {
	// Building a path by origin-prepending k extra copies must yield
	// PrependCount k, for any base path not already ending in origin.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		origin := AS(rng.Intn(1 << 16)) // #nosec test randomness
		base := Path{origin}
		for i := 0; i < rng.Intn(5); i++ {
			next := AS(rng.Intn(1 << 16))
			if next == origin {
				next++
			}
			base = base.Prepend(next, 1)
		}
		k := rng.Intn(5)
		// Origin prepending inserts extra origin copies adjacent to the
		// origin: rebuild from the origin side.
		withPrepends := Path{origin}.Prepend(origin, k)
		for i := len(base) - 2; i >= 0; i-- {
			withPrepends = withPrepends.Prepend(base[i], 1)
		}
		if got := withPrepends.PrependCount(); got != k {
			t.Fatalf("trial %d: PrependCount(%v) = %d, want %d", trial, withPrepends, got, k)
		}
	}
}
