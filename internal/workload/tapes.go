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
// times. A tape keeps the values its cursors read, rounded up to a
// chunk, not the generator (≈4.9 kB of rand.Source state): 10.5 kB per
// seed whose streams are read to 1,030 values. A repeated run skips
// seeding a source and the draws and observes a bit-identical sequence.

// tapeChunk is how many values a tape holds per chunk, and so how many
// a cursor draws when it extends the tape.
const tapeChunk = 64

// arrivalKey identifies one Poisson arrival stream: the generator seed
// and the arrival rate (arrivals per cycle). Equal keys guarantee
// identical timestamp sequences.
type arrivalKey struct {
	seed int64
	rate float64
}

// tape is one stream's values in chunks of tapeChunk, drawn by a
// generator that fresh starts anew at the stream's first value. A chunk
// is never written once it is on the tape.
type tape[T any] struct {
	mu     sync.Mutex
	fresh  func() (next func() T)
	chunks []*[tapeChunk]T
}

// cursor reads a tape from its first value. The cursor that reads past
// the tape's last chunk draws the next one with its own generator, made
// by fresh on its first extension and dropped with the cursor; it first
// skips the generator past the chunks other cursors drew meanwhile. So
// each value held is drawn once, and the tape keeps no generator.
type cursor[T any] struct {
	t     *tape[T]
	c     *[tapeChunk]T // the chunk of the last value read
	pos   int
	next  func() T
	drawn int // values next has drawn
}

// Next returns the tape's next value.
func (c *cursor[T]) Next() T {
	if c.pos%tapeChunk == 0 {
		c.load()
	}
	c.pos++
	return c.c[(c.pos-1)%tapeChunk]
}

// load points c at chunk pos/tapeChunk, drawing it if the tape ends.
func (c *cursor[T]) load() {
	t, k := c.t, c.pos/tapeChunk
	t.mu.Lock()
	defer t.mu.Unlock()
	if k == len(t.chunks) {
		if c.next == nil {
			c.next = t.fresh()
		}
		for ; c.drawn < k*tapeChunk; c.drawn++ {
			c.next()
		}
		ch := new([tapeChunk]T)
		for i := range ch {
			ch[i] = c.next()
		}
		c.drawn += tapeChunk
		t.chunks = append(t.chunks, ch)
	}
	c.c = t.chunks[k]
}

// The process-wide tapes, one per distinct key. Like DefaultCurveStore
// they are process-wide because sim.New draws them from a plain-value
// Config. Beside its values a tape costs ≈120 B and a pointer per
// chunk: a seed whose streams are read to 1,030 draws each retains
// 10.5 kB, 17 chunks of 64 8-byte slots plus 17 of 64 1-byte classes
// (TestTapeRetainsOnlyValues), so neither memo evicts.
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
