package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// DeadlineClass is the tightness of a job's deadline relative to its
// maximum wall-clock time tw (paper §6): td − ta = k·tw.
type DeadlineClass int

const (
	// DeadlineTight is td − ta = 1.05·tw (50% of jobs).
	DeadlineTight DeadlineClass = iota
	// DeadlineModerate is td − ta = 2·tw (30% of jobs).
	DeadlineModerate
	// DeadlineRelaxed is td − ta = 3·tw (20% of jobs).
	DeadlineRelaxed
)

// Factor returns the deadline multiplier k for the class.
func (d DeadlineClass) Factor() float64 {
	switch d {
	case DeadlineTight:
		return 1.05
	case DeadlineModerate:
		return 2.0
	case DeadlineRelaxed:
		return 3.0
	}
	panic(fmt.Sprintf("workload: unknown deadline class %d", int(d)))
}

// String names the class.
func (d DeadlineClass) String() string {
	switch d {
	case DeadlineTight:
		return "tight"
	case DeadlineModerate:
		return "moderate"
	case DeadlineRelaxed:
		return "relaxed"
	}
	return fmt.Sprintf("DeadlineClass(%d)", int(d))
}

// DeadlineMix produces the paper's pseudo-random 50/30/20
// tight/moderate/relaxed assignment: every block of ten consecutive jobs
// contains exactly 5 tight, 3 moderate, and 2 relaxed deadlines, in a
// seeded shuffle. It is a cursor over a process-wide memoized tape (see
// tapes.go), so repeated runs with the same seed replay the identical
// class sequence without re-seeding a generator.
type DeadlineMix struct {
	tape    *deadlineTape
	classes []DeadlineClass // read-only snapshot of the tape
	pos     int
}

// NewDeadlineMix builds a deterministic deadline assigner.
func NewDeadlineMix(seed int64) *DeadlineMix {
	return &DeadlineMix{tape: deadlineTapeFor(seed)}
}

// Next returns the deadline class for the next job.
func (m *DeadlineMix) Next() DeadlineClass {
	if m.pos == len(m.classes) {
		m.classes = m.tape.prefix(m.pos + tapeChunk)
	}
	c := m.classes[m.pos]
	m.pos++
	return c
}

// Arrivals generates Poisson job arrivals at the paper's load: in one
// job wall-clock time tw, on average ProbesPerTw jobs arrive and probe
// the CMP's admission controller (paper §6: 4 cores × 128 CMPs = 512).
// Like DeadlineMix it is a cursor over a memoized tape keyed by
// (seed, rate).
type Arrivals struct {
	tape  *arrivalTape
	times []int64 // read-only snapshot of the tape
	pos   int
}

// DefaultProbesPerTw is the paper's arrival pressure: 4×128 probes per
// job wall-clock time.
const DefaultProbesPerTw = 512.0

// NewArrivals builds a Poisson arrival process with the given mean
// number of arrivals per twCycles window.
func NewArrivals(seed int64, probesPerTw float64, twCycles int64) *Arrivals {
	if probesPerTw <= 0 || twCycles <= 0 {
		panic("workload: arrivals need positive rate and window")
	}
	return &Arrivals{tape: arrivalTapeFor(seed, probesPerTw/float64(twCycles))}
}

// Next returns the cycle timestamp of the next arrival; timestamps are
// strictly non-decreasing.
func (a *Arrivals) Next() int64 {
	if a.pos == len(a.times) {
		a.times = a.tape.prefix(a.pos + tapeChunk)
	}
	v := a.times[a.pos]
	a.pos++
	return v
}

// ArrivalStream is the streaming face of Arrivals: it draws the exact
// timestamp sequence the memoized tape holds for the same (seed, rate),
// but keeps only the generator state. Fleet-scale cluster runs consume
// tens of millions of arrivals; a tape would materialize every one of
// them, a stream materializes none.
type ArrivalStream struct {
	rng  *rand.Rand
	rate float64
	now  float64
}

// NewArrivalStream builds an unmemoized Poisson arrival process with the
// given mean number of arrivals per twCycles window. For equal
// (seed, probesPerTw, twCycles) it produces the identical sequence to
// NewArrivals.
func NewArrivalStream(seed int64, probesPerTw float64, twCycles int64) *ArrivalStream {
	if probesPerTw <= 0 || twCycles <= 0 {
		panic("workload: arrivals need positive rate and window")
	}
	return &ArrivalStream{
		rng:  rand.New(rand.NewSource(seed)),
		rate: probesPerTw / float64(twCycles),
	}
}

// Next returns the cycle timestamp of the next arrival; timestamps are
// strictly non-decreasing.
func (s *ArrivalStream) Next() int64 {
	// Exponential inter-arrival with mean 1/rate cycles.
	gap := -math.Log(1-s.rng.Float64()) / s.rate
	s.now += gap
	return int64(s.now)
}

// DeadlineStream is the streaming face of DeadlineMix: the same shuffled
// 5/3/2 blocks of ten, drawn from generator state instead of a
// materialized tape, for workloads whose class sequence is consumed
// millions of times.
type DeadlineStream struct {
	rng   *rand.Rand
	block [10]DeadlineClass
	pos   int
}

// NewDeadlineStream builds an unmemoized deadline assigner producing the
// identical class sequence to NewDeadlineMix for the same seed.
func NewDeadlineStream(seed int64) *DeadlineStream {
	return &DeadlineStream{rng: rand.New(rand.NewSource(seed)), pos: 10}
}

// Next returns the deadline class for the next job.
func (s *DeadlineStream) Next() DeadlineClass {
	if s.pos == len(s.block) {
		s.block = [...]DeadlineClass{
			DeadlineTight, DeadlineTight, DeadlineTight, DeadlineTight, DeadlineTight,
			DeadlineModerate, DeadlineModerate, DeadlineModerate,
			DeadlineRelaxed, DeadlineRelaxed,
		}
		s.rng.Shuffle(len(s.block), func(i, j int) {
			s.block[i], s.block[j] = s.block[j], s.block[i]
		})
		s.pos = 0
	}
	c := s.block[s.pos]
	s.pos++
	return c
}
