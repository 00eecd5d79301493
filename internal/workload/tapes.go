package workload

import (
	"math/rand"
	"sync"

	"cmpqos/internal/parallel"
)

// This file memoizes the two pseudo-random input streams of the
// simulator — Poisson arrival timestamps and the 50/30/20 deadline-class
// mix. Both are pure functions of their key (seed, and for arrivals the
// rate), and an experiment grid replays the same few keys thousands of
// times. A tape keeps the drawn values, not the generator (≈4.9 kB of
// rand.Source state), and hands consumers read-only snapshots, so a
// repeated run skips seeding a source and the draws and observes a
// bit-identical sequence.

// tapeChunk is how many entries a consumer faults in per refill; the
// tape itself grows by at least this much per extension.
const tapeChunk = 256

// arrivalKey identifies one Poisson arrival stream: the generator seed
// and the arrival rate (arrivals per cycle). Equal keys guarantee
// identical timestamp sequences.
type arrivalKey struct {
	seed int64
	rate float64
}

// tape is one stream's values, drawn by a generator that fresh starts
// anew at the stream's first value.
type tape[T any] struct {
	mu    sync.Mutex
	fresh func() (next func() T)
	vals  []T
}

// prefix returns a snapshot of at least n values. An extension draws the
// whole longer prefix again from a fresh generator into a new slice, so
// no snapshot handed out is ever written; the length at least doubles,
// so a tape of length L has cost fewer than 2L draws in all.
func (t *tape[T]) prefix(n int) []T {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.vals) < n {
		n = max(n, 2*len(t.vals))
		vals, next := make([]T, (n+tapeChunk-1)/tapeChunk*tapeChunk), t.fresh()
		for i := range vals {
			vals[i] = next()
		}
		t.vals = vals
	}
	return t.vals
}

// The process-wide tapes, one per distinct key. Like DefaultCurveStore
// they are process-wide because sim.New draws them from a plain-value
// Config. Beside its values a tape costs ≈110 B: a seed whose streams
// are read to 1,000 draws each retains 9.4 kB, 1,024 slots of 8 B plus
// 1,024 of 1 B (TestTapeRetainsOnlyValues), so neither memo evicts.
var (
	arrivalTapes  parallel.Memo[arrivalKey, *tape[int64]]
	deadlineTapes parallel.Memo[int64, *tape[DeadlineClass]]
)

func arrivalTapeFor(seed int64, rate float64) *tape[int64] {
	t, _ := arrivalTapes.Get(arrivalKey{seed: seed, rate: rate}, func() (*tape[int64], error) {
		return &tape[int64]{fresh: func() func() int64 {
			return (&ArrivalStream{rng: rand.New(rand.NewSource(seed)), rate: rate}).Next
		}}, nil
	})
	return t
}

func deadlineTapeFor(seed int64) *tape[DeadlineClass] {
	t, _ := deadlineTapes.Get(seed, func() (*tape[DeadlineClass], error) {
		return &tape[DeadlineClass]{fresh: func() func() DeadlineClass { return NewDeadlineStream(seed).Next }}, nil
	})
	return t
}
