package workload

import (
	"math/rand"
	"sync"
)

// This file memoizes the two pseudo-random input streams of the
// simulator — Poisson arrival timestamps and the 50/30/20 deadline-class
// mix — the same way curvestore.go memoizes miss curves. Both streams
// are pure functions of their seed (and, for arrivals, the rate), yet
// every Runner construction used to re-seed a math/rand source (~600
// words of state) and re-draw the stream; across an experiment grid the
// same few seeds are replayed thousands of times. A tape computes each
// stream once, lazily extends it on demand, and hands consumers
// read-only snapshots, so repeated runs skip both the seeding and the
// exponential/shuffle draws while observing bit-identical sequences.

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

// arrivalTape lazily materializes one arrival stream: the timestamps
// its ArrivalStream has drawn so far.
type arrivalTape struct {
	mu     sync.Mutex
	stream ArrivalStream
	times  []int64
}

// prefix returns a snapshot holding at least n timestamps. Snapshots are
// immutable: extension either appends past every snapshot's length or
// reallocates, so concurrent readers are never invalidated.
func (t *arrivalTape) prefix(n int) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.times) < n {
		t.times = append(t.times, t.stream.Next())
	}
	return t.times[:len(t.times):len(t.times)]
}

// deadlineTape lazily materializes one deadline-class stream: the classes
// its DeadlineStream has drawn so far.
type deadlineTape struct {
	mu      sync.Mutex
	stream  DeadlineStream
	classes []DeadlineClass
}

// prefix returns a snapshot holding at least n classes.
func (t *deadlineTape) prefix(n int) []DeadlineClass {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.classes) < n {
		t.classes = append(t.classes, t.stream.Next())
	}
	return t.classes[:len(t.classes):len(t.classes)]
}

// tapeStore holds the process-wide memoized streams. Tapes are tiny (a
// few hundred entries per distinct seed/rate), so the store never needs
// eviction.
type tapeStore struct {
	mu  sync.Mutex
	arr map[arrivalKey]*arrivalTape
	dl  map[int64]*deadlineTape
}

var tapes = &tapeStore{
	arr: map[arrivalKey]*arrivalTape{},
	dl:  map[int64]*deadlineTape{},
}

func (s *tapeStore) arrival(seed int64, rate float64) *arrivalTape {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := arrivalKey{seed: seed, rate: rate}
	t := s.arr[k]
	if t == nil {
		t = &arrivalTape{stream: ArrivalStream{rng: rand.New(rand.NewSource(seed)), rate: rate}}
		s.arr[k] = t
	}
	return t
}

func (s *tapeStore) deadline(seed int64) *deadlineTape {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.dl[seed]
	if t == nil {
		t = &deadlineTape{stream: *NewDeadlineStream(seed)}
		s.dl[seed] = t
	}
	return t
}
