package parallel

import "math/rand"

// math/rand's Go 1 source is an additive lagged-Fibonacci generator,
// x[n] = x[n-607] + x[n-273] over a 607-word register. Seeding runs
// the Lehmer step x·48271 mod (2³¹−1) 20 times to warm up and then
// three times per register word, XORing the three values (shifted 40,
// 20, 0) into an additive constant — 1,841 steps and a 4.9 KB state
// before the first draw. Output word k (from 1) adds register slots
// 334−k and 607−k, and for k ≤ 273 neither has been written yet, so
// the word is a function of the seed alone: each slot is three Lehmer
// values a known number of steps from the seed, reachable in one
// multiplication by a precomputed power of 48271.
const (
	rngLen   = 607
	rngTap   = 273
	lcgMul   = 48271
	lcgMod   = 1<<31 - 1
	zeroSeed = 89482311 // what math/rand substitutes for a seed ≡ 0
)

var (
	// lcgJump[i] = 48271^(21+3i) mod (2³¹−1): one multiplication takes
	// the seed to the first of register slot i's three Lehmer values.
	lcgJump [rngLen]uint64
	// cooked[i] is slot i's additive constant, recovered from math/rand
	// in init rather than copied from its source.
	cooked [rngLen]int64
)

// Both tables are filled here and only read afterwards, so streams on
// any number of goroutines share them without synchronisation.
func init() {
	j := uint64(1)
	for s := 0; s < 21; s++ {
		j = j * lcgMul % lcgMod
	}
	for i := range lcgJump {
		lcgJump[i] = j
		j = j * lcgMul % lcgMod * lcgMul % lcgMod * lcgMul % lcgMod
	}

	// Word k lands in slot (334−k) mod 607, so 607 draws overwrite the
	// whole register; undoing the additions last to first leaves the
	// seeded register, and XORing out the seed's Lehmer part leaves the
	// constants.
	const known = 1
	src := rand.NewSource(known).(rand.Source64) // #nosec deterministic simulation
	var vec [rngLen]int64
	slot := func(k int) int { return ((rngLen-rngTap-k)%rngLen + rngLen) % rngLen }
	for k := 1; k <= rngLen; k++ {
		vec[slot(k)] = int64(src.Uint64())
	}
	for k := rngLen; k >= 1; k-- {
		vec[slot(k)] -= vec[slot(k-rngTap)]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lehmerPart(known, i)
	}
}

// lehmerPart returns the seed-dependent part of register slot i for a
// normalised seed in [1, 2³¹−2].
func lehmerPart(seed uint64, i int) int64 {
	x := seed * lcgJump[i] % lcgMod
	u := int64(x) << 40
	x = x * lcgMul % lcgMod
	u ^= int64(x) << 20
	x = x * lcgMul % lcgMod
	return u ^ int64(x)
}

// lazySource is a rand.Source64 whose value stream is bit-identical to
// rand.NewSource(seed) but which computes each of the first 273 words
// straight from the seed. The 274th word needs a slot an earlier word
// wrote, so there it builds the real source, advances it past the
// words already handed out and delegates from then on.
// TestRandMatchesMathRand and FuzzRandMatchesMathRand hold it to
// math/rand draw for draw.
type lazySource struct {
	seed  int64         // as given, for the real source
	lcg   uint64        // seed normalised the way math/rand does
	drawn int           // words handed out so far, while real == nil
	real  rand.Source64 // set once the stream outgrows the seed-only words
}

func newLazySource(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed restarts the stream at the first word of seed, dropping any
// real source the last stream built: the next 273 words are again
// computed from the seed, allocating nothing.
func (s *lazySource) Seed(seed int64) {
	n := seed % lcgMod
	if n < 0 {
		n += lcgMod
	}
	if n == 0 {
		n = zeroSeed
	}
	*s = lazySource{seed: seed, lcg: uint64(n)}
}

func (s *lazySource) Uint64() uint64 {
	if s.real == nil {
		if s.drawn < rngTap {
			s.drawn++
			feed, tap := rngLen-rngTap-s.drawn, rngLen-s.drawn
			return uint64((lehmerPart(s.lcg, feed) ^ cooked[feed]) + (lehmerPart(s.lcg, tap) ^ cooked[tap]))
		}
		s.real = rand.NewSource(s.seed).(rand.Source64) // #nosec deterministic simulation
		for k := 0; k < rngTap; k++ {
			s.real.Uint64()
		}
	}
	return s.real.Uint64()
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
