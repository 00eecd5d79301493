package workload

import (
	"math/rand"
	"sync"

	"cmpqos/internal/parallel"
)

// This file memoizes the two pseudo-random input streams of the
// simulator — Poisson arrival timestamps and the 50/30/20 deadline-class
// mix. Both are pure functions of their seed (and, for arrivals, the
// rate), and an experiment grid replays the same few seeds thousands of
// times. A tape draws each stream once, extends it lazily, and hands
// consumers read-only snapshots, so a repeated run skips seeding a
// math/rand source (~600 words of state) and the draws, and observes a
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

// tape lazily materializes one stream: the values its generator S has
// drawn so far. P is *S, whose Next draws the next value.
type tape[T, S any, P interface {
	*S
	Next() T
}] struct {
	mu     sync.Mutex
	stream S
	vals   []T
}

// The two tapes a simulation draws.
type (
	arrivalTape  = tape[int64, ArrivalStream, *ArrivalStream]
	deadlineTape = tape[DeadlineClass, DeadlineStream, *DeadlineStream]
)

// prefix returns a snapshot holding at least n values. Snapshots are
// immutable: extension either appends past every snapshot's length or
// reallocates, so concurrent readers are never invalidated.
func (t *tape[T, S, P]) prefix(n int) []T {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.vals) < n {
		t.vals = append(t.vals, P(&t.stream).Next())
	}
	return t.vals[:len(t.vals):len(t.vals)]
}

// The process-wide tapes, one per distinct key. Like DefaultCurveStore
// they are process-wide because sim.New draws them from a plain-value
// Config. Tapes are tiny (a few hundred entries per distinct seed/rate),
// so neither memo needs eviction.
var (
	arrivalTapes  parallel.Memo[arrivalKey, *arrivalTape]
	deadlineTapes parallel.Memo[int64, *deadlineTape]
)

func arrivalTapeFor(seed int64, rate float64) *arrivalTape {
	t, _ := arrivalTapes.Get(arrivalKey{seed: seed, rate: rate}, func() (*arrivalTape, error) {
		return &arrivalTape{stream: ArrivalStream{rng: rand.New(rand.NewSource(seed)), rate: rate}}, nil
	})
	return t
}

func deadlineTapeFor(seed int64) *deadlineTape {
	t, _ := deadlineTapes.Get(seed, func() (*deadlineTape, error) {
		return &deadlineTape{stream: *NewDeadlineStream(seed)}, nil
	})
	return t
}
