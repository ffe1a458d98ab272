package parallel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// reference is what Rand promises to equal, draw for draw.
func reference(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(SubSeed(seed, stream)))
}

// drawMixed makes n draws from each RNG, cycling through the Rand
// methods the repository uses (they consume one, two or a variable
// number of source words each), and reports the first disagreement.
func drawMixed(t *testing.T, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 6 {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1:
			g, w = got.Intn(1000), want.Intn(1000)
		case 2:
			g, w = got.Int63n(1e12), want.Int63n(1e12)
		case 3:
			g, w = got.ExpFloat64(), want.ExpFloat64()
		case 4:
			g, w = got.Uint64(), want.Uint64()
		case 5:
			g, w = got.Perm(5), want.Perm(5)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("draw %d (kind %d): got %v, math/rand gives %v", i, i%6, g, w)
		}
	}
}

// TestRandMatchesMathRand is the guard on Rand's contract: the lazy
// source equals math/rand's seeded source on every draw, before,
// across and after the 273-word hand-over, for the seeds math/rand
// normalises specially and for a seeded-random sample.
func TestRandMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, -m, 2 * m, -2 * m, zeroSeed, math.MinInt64, math.MaxInt64}
	pick := rand.New(rand.NewSource(18))
	for i := 0; i < 500; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for i, seed := range seeds {
		// Rand always mixes through SubSeed; the source is also checked
		// on the raw seed so the special cases reach it unmixed.
		drawMixed(t, Rand(seed, uint64(i)), reference(seed, uint64(i)), 900)
		drawMixed(t, rand.New(newLazySource(seed)), rand.New(rand.NewSource(seed)), 900)
	}

	// Stop exactly before, on and after the word that builds the real
	// source, then keep drawing through a different method.
	for _, words := range []int{272, 273, 274} {
		got, want := Rand(7, 7), reference(7, 7)
		for k := 0; k < words; k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("stop at %d: word %d = %#x, math/rand gives %#x", words, k+1, g, w)
			}
		}
		drawMixed(t, got, want, 30)
	}

	// Seed restarts the stream, from either side of the hand-over.
	for _, before := range []int{3, 400} {
		got, want := Rand(7, 8), reference(7, 8)
		for k := 0; k < before; k++ {
			got.Int63()
			want.Int63()
		}
		got.Seed(-12345)
		want.Seed(-12345)
		drawMixed(t, got, want, 900)
	}
}

// TestRandReseedMatchesFresh holds the reseed form the prober uses,
// one Rand pointed at stream after stream through
// Seed(SubSeed(seed, stream)), to a fresh Rand per stream: over 1,000
// (seed, stream) pairs of mixed lengths, and across the 273-word
// hand-over both ways — a reseed right after a stream built its real
// source, and a short stream followed by one that outgrows the window.
func TestRandReseedMatchesFresh(t *testing.T) {
	pick := rand.New(rand.NewSource(46))
	r := Rand(0, 0)
	for i := 0; i < 1000; i++ {
		seed, stream := int64(pick.Uint64()), pick.Uint64()
		r.Seed(SubSeed(seed, stream))
		// Mostly the prober's few draws; every 50th stream long enough
		// to leave the lazy window.
		n := 1 + pick.Intn(6)
		if i%50 == 0 {
			n = 600
		}
		drawMixed(t, r, Rand(seed, stream), n)
	}

	for _, tc := range []struct {
		name          string
		before, after int // words drawn from the first stream; mixed draws from the second
	}{
		{"right after outgrowing", rngTap + 1, 30},
		{"long past the window", 900, 30},
		{"short, then outgrowing", 3, 600},
	} {
		r := Rand(1, 1)
		for k := 0; k < tc.before; k++ {
			r.Uint64()
		}
		r.Seed(SubSeed(2, 2))
		drawMixed(t, r, Rand(2, 2), tc.after)
	}
}

// TestRandReseedAllocs pins what the reseed form is for: pointing a
// Rand at the next short stream and drawing from it allocates nothing.
func TestRandReseedAllocs(t *testing.T) {
	r := Rand(1, 0)
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		r.Seed(SubSeed(1, 42))
		sink += r.Float64() + r.Float64() + r.Float64()
	})
	if allocs != 0 {
		t.Errorf("Seed + three Float64 = %v allocations, want 0", allocs)
	}
}

func FuzzRandMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint64(0), uint16(3))
	f.Add(int64(1), uint64(0xB35C), uint16(274))
	f.Add(int64(math.MinInt64), uint64(math.MaxUint64), uint16(900))
	f.Fuzz(func(t *testing.T, seed int64, stream uint64, n uint16) {
		drawMixed(t, Rand(seed, stream), reference(seed, stream), int(n%2048))
		got, want := newLazySource(seed), rand.NewSource(seed).(rand.Source64)
		for k := 0; k < int(n%2048); k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d word %d = %#x, math/rand gives %#x", seed, k+1, g, w)
			}
		}
	})
}

// TestRandShortStreamAllocs pins what the lazy source is for: a stream
// that draws three floats costs the *rand.Rand and the source header,
// not a seeded register.
func TestRandShortStreamAllocs(t *testing.T) {
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		r := Rand(1, 42)
		sink += r.Float64() + r.Float64() + r.Float64()
	})
	if allocs > 2 {
		t.Errorf("Rand + three Float64 = %v allocations, want <= 2", allocs)
	}
}

var benchSink float64

// BenchmarkRandThreeDraws is one probe-loss stream: construct, draw
// three floats, drop. The reseed arm is what the prober does, one Rand
// pointed at each stream in turn; the mathrand arm is the seeded
// source Rand stands in for, for scale.
func BenchmarkRandThreeDraws(b *testing.B) {
	shared := Rand(1, 0)
	reseed := func(seed int64, stream uint64) *rand.Rand {
		shared.Seed(SubSeed(seed, stream))
		return shared
	}
	for _, arm := range []struct {
		name string
		new  func(int64, uint64) *rand.Rand
	}{{"lazy", Rand}, {"reseed", reseed}, {"mathrand", reference}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := arm.new(1, uint64(i))
				benchSink += r.Float64() + r.Float64() + r.Float64()
			}
		})
	}
}
