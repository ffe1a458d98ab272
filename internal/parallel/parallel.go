// Package parallel is the sharded work-pool layer behind the
// pipeline's hot loops: prefix-range sharding, bounded workers, and an
// ordered result merge, with deterministic per-shard RNG streams
// derived from a session seed.
//
// Determinism contract: the shard set produced by Shards depends only
// on the item count and shard size — never on the worker count — and
// Collect writes each shard's result into a slot indexed by the
// shard's position, so the merged output is byte-identical no matter
// how many workers ran the shards or in which order they finished.
// Combined with SubSeed-derived RNG streams (one per shard or per
// item, never shared across shards), a run with N workers reproduces a
// run with 1 worker exactly.
package parallel

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Workers resolves a worker-count setting: values <= 0 select
// runtime.GOMAXPROCS(0), the "as fast as the hardware allows" default.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Shard is one contiguous index range [Lo, Hi) of a sharded loop.
// Index is the shard's position in the shard set; it doubles as the
// stream id when deriving the shard's RNG via SubSeed.
type Shard struct {
	Index  int
	Lo, Hi int
}

// Items returns the number of items in the shard.
func (s Shard) Items() int { return s.Hi - s.Lo }

// Shards splits n items into contiguous ranges of at most size items
// each. The split depends only on (n, size), so per-shard state (RNG
// streams, timings) is independent of the worker count. A size <= 0
// yields one item per shard.
func Shards(n, size int) []Shard {
	if n <= 0 {
		return nil
	}
	if size <= 0 {
		size = 1
	}
	out := make([]Shard, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Shard{Index: len(out), Lo: lo, Hi: hi})
	}
	return out
}

// Timing records one shard's wall-clock cost, for the run manifest's
// parallel section.
type Timing struct {
	Shard    int
	Items    int
	Duration time.Duration
}

// ShardPanic is what Do re-panics with, on the calling goroutine,
// when a shard fn panicked inside a worker. Without this translation
// a panic on a pool goroutine is unconditionally fatal — no caller
// can recover it and the whole process dies; re-raising it on the
// caller turns a worker crash into an ordinary recoverable panic, so
// a long-running host (resurveyd's per-job isolation) can fail just
// the offending job and keep serving. Only the lowest-indexed shard's
// panic is kept (deterministic under any worker count); the remaining
// shards still run so sibling work sees no lost shards.
type ShardPanic struct {
	// Shard is the failed shard's index.
	Shard int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at the panic site.
	Stack []byte
}

// Error renders the panic with its origin shard; the stack is kept
// separately for logs.
func (p *ShardPanic) Error() string {
	return fmt.Sprintf("parallel: shard %d panicked: %v", p.Shard, p.Value)
}

// panicCounter, when set, counts recovered worker panics
// (parallel_worker_panics_total). Package-level because Do is called
// from deep inside loops that do not thread a registry; atomic so a
// server can install it while pools are live.
var panicCounter atomic.Pointer[telemetry.Counter]

// SetPanicCounter installs the counter incremented once per recovered
// worker panic. Pass the host registry's
// Counter("parallel_worker_panics_total"); nil uninstalls.
func SetPanicCounter(c *telemetry.Counter) { panicCounter.Store(c) }

// runShard executes fn on one shard, converting a panic into a
// *ShardPanic instead of unwinding the worker goroutine.
func runShard(fn func(Shard), s Shard) (sp *ShardPanic) {
	defer func() {
		if v := recover(); v != nil {
			sp = &ShardPanic{Shard: s.Index, Value: v, Stack: debug.Stack()}
			if c := panicCounter.Load(); c != nil {
				c.Inc()
			}
		}
	}()
	fn(s)
	return nil
}

// Do runs fn once per shard of n items on min(workers, shards)
// goroutines. Shards are handed out in index order through an atomic
// cursor; with one worker the loop degenerates to a plain sequential
// sweep with no goroutines. fn must not assume any cross-shard
// ordering — shards complete in arbitrary order under load.
//
// A panicking fn does not crash the process from a worker goroutine:
// the panic is recovered, counted (see SetPanicCounter), the
// remaining shards still run, and Do re-panics on the calling
// goroutine with a *ShardPanic carrying the first failure — which the
// caller may recover like any ordinary panic.
func Do(n, size, workers int, fn func(Shard)) {
	shards := Shards(n, size)
	if len(shards) == 0 {
		return
	}
	// Keep the lowest-indexed failure, not the first to finish, so the
	// surfaced panic is deterministic under any worker count.
	var first atomic.Pointer[ShardPanic]
	keep := func(sp *ShardPanic) {
		for sp != nil {
			cur := first.Load()
			if cur != nil && cur.Shard <= sp.Shard {
				return
			}
			if first.CompareAndSwap(cur, sp) {
				return
			}
		}
	}
	w := Workers(workers)
	if w > len(shards) {
		w = len(shards)
	}
	if w <= 1 {
		for _, s := range shards {
			keep(runShard(fn, s))
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for i := 0; i < w; i++ {
			go func() {
				defer wg.Done()
				for {
					k := int(cursor.Add(1)) - 1
					if k >= len(shards) {
						return
					}
					keep(runShard(fn, shards[k]))
				}
			}()
		}
		wg.Wait()
	}
	if sp := first.Load(); sp != nil {
		panic(sp)
	}
}

// Collect runs fn over the shards of n items and returns the per-shard
// results in shard order — the deterministic merge. Each result lands
// in its shard's slot, so the output is identical for any worker
// count.
func Collect[T any](n, size, workers int, fn func(Shard) T) []T {
	out := make([]T, len(Shards(n, size)))
	Do(n, size, workers, func(s Shard) {
		out[s.Index] = fn(s)
	})
	return out
}

// CollectTimed is Collect plus per-shard wall-clock timings (in shard
// order). Timings are observability output only; nothing in the
// result depends on them.
func CollectTimed[T any](n, size, workers int, fn func(Shard) T) ([]T, []Timing) {
	shards := Shards(n, size)
	out := make([]T, len(shards))
	timings := make([]Timing, len(shards))
	Do(n, size, workers, func(s Shard) {
		t0 := time.Now()
		out[s.Index] = fn(s)
		timings[s.Index] = Timing{Shard: s.Index, Items: s.Items(), Duration: time.Since(t0)}
	})
	return out, timings
}

// SubSeed derives the seed of an independent RNG stream from a session
// seed. The derivation is a splitmix64 mix of the seed and the stream
// id, the convention every sharded loop in this repository uses:
//
//   - the probe loss stream of one (round, prefix) uses
//     stream = uint64(roundStart)<<32 ^ prefixKey, so every round and
//     every prefix draws from its own stream and the merge is
//     independent of both shard boundaries and worker count;
//   - the fault sweep derives its schedule seed per pipeline seed with
//     a fixed stream tag (see core.Pipeline);
//   - plain per-shard state uses stream = uint64(Shard.Index).
//
// Two streams of the same seed are decorrelated by the mix; the same
// (seed, stream) pair always yields the same sub-seed, which is what
// makes a parallel run reproduce a sequential one bit for bit. The
// draws of a stream are math/rand's for its sub-seed (see Rand), so
// both this mix and math/rand's frozen Go 1 value stream are part of
// every pinned output.
func SubSeed(seed int64, stream uint64) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Rand returns a fresh deterministic RNG for (seed, stream) whose
// draws are exactly those of rand.New(rand.NewSource(SubSeed(seed,
// stream))). Each caller owns the returned RNG exclusively; sharing
// one *rand.Rand across shards would both race and reintroduce
// order-dependent draws.
//
// Most streams here are short — a probe-loss stream draws about three
// floats — so the source behind it (lazySource) does not seed
// math/rand's 607-word register up front: the first 273 words are
// computed from the sub-seed directly, and only a stream that outlives
// them pays for the real source. Nothing about the values changes; it
// rests on math/rand's Go 1 value stream being frozen, and
// TestRandMatchesMathRand fails if a toolchain ever moves it.
//
// r.Seed(SubSeed(seed, stream)) points a Rand from here at another
// stream without allocating: rand.Rand.Seed clears its own read
// position and restarts the lazy source, which drops any real source
// it had built, so the draws that follow are exactly those of a fresh
// Rand(seed, stream) (TestRandReseedMatchesFresh). A loop that walks
// many short streams, as the prober does one per (round, prefix),
// reseeds one Rand per shard this way.
func Rand(seed int64, stream uint64) *rand.Rand {
	return rand.New(newLazySource(SubSeed(seed, stream))) // #nosec deterministic simulation
}
