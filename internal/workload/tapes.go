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
// chunk, not the generator (≈4.9 kB of rand.Source state), and each
// value in the bits it needs: an arrival stamp as the gap from the stamp
// before it, Rice-coded with a parameter per chunk, a deadline class as
// a 2-bit code, four to a byte. A seed whose streams are read to 1,030
// values retains ≈2.7 kB. A repeated run skips seeding a source and the
// draws and observes a bit-identical sequence.

// tapeChunk is how many values a tape holds per chunk, and so how many
// a cursor draws when it extends the tape.
const tapeChunk = 128

// arrivalKey identifies one Poisson arrival stream: the generator seed
// and the arrival rate (arrivals per cycle). Equal keys guarantee
// identical timestamp sequences.
type arrivalKey struct {
	seed int64
	rate float64
}

// packedTape is one stream's values in chunks of tapeChunk, each packed
// by the stream's encoding into a C. A generator that fresh starts anew
// draws the stream's values from its first, and pack encodes a chunk of
// them. A chunk is never written once it is on the tape.
type packedTape[C any] struct {
	mu     sync.Mutex
	fresh  func() (next func() int64)
	pack   func(vals *[tapeChunk]int64) C
	chunks []C
}

// packedCursor is the part of a cursor both streams share: it reads a
// tape from its first value, and the stream's Next decodes the chunks
// load returns. The cursor that reads past the tape's last chunk draws
// the next one with its own generator, made by fresh on its first
// extension and dropped with the cursor; it first skips the generator
// past the chunks other cursors drew meanwhile. So each value held is
// drawn once, and the tape keeps no generator.
type packedCursor[C any] struct {
	t   *packedTape[C]
	pos int     // values read
	gen *drawer // nil until the cursor first extends the tape
}

// drawer is a cursor's own generator and how many values it has drawn.
type drawer struct {
	next  func() int64
	drawn int
}

// load returns chunk pos/tapeChunk, drawing it if the tape ends there.
func (c *packedCursor[C]) load() C {
	t, k := c.t, c.pos/tapeChunk
	t.mu.Lock()
	defer t.mu.Unlock()
	if k == len(t.chunks) {
		if c.gen == nil {
			c.gen = &drawer{next: t.fresh()}
		}
		g := c.gen
		for ; g.drawn < k*tapeChunk; g.drawn++ {
			g.next()
		}
		var vals [tapeChunk]int64
		for i := range vals {
			vals[i] = g.next()
		}
		g.drawn += tapeChunk
		t.chunks = append(t.chunks, t.pack(&vals))
	}
	return t.chunks[k]
}

// riceMaxK caps a chunk's Rice parameter: a 64-bit load from any bit
// offset holds at least 57 bits, so a remainder always fits one.
const riceMaxK = 57

// gapTape holds arrival stamps as gaps, a chunk's first gap taken from
// the previous chunk's last stamp and the stream's first from 0, each
// chunk Rice-coded by packGaps.
type gapTape = packedTape[[]byte]

func newGapTape(stamps func() (next func() int64)) *gapTape {
	return &gapTape{
		fresh: func() func() int64 {
			next, last := stamps(), int64(0)
			return func() int64 {
				s := next()
				gap := s - last
				last = s
				return gap
			}
		},
		pack: packGaps,
	}
}

// packGaps Rice-codes a chunk's gaps, which are never negative, into an
// exactly sized chunk: byte 0 holds the parameter k, and from byte 1 on
// each gap g is g>>k zero bits, a one bit and g's low k bits, least
// significant bit first.
func packGaps(gaps *[tapeChunk]int64) []byte {
	k := riceK(gaps)
	n := 0
	for _, g := range gaps {
		n += int(g>>k) + 1 + int(k)
	}
	code := make([]byte, 1+(n+7)/8)
	code[0] = byte(k)
	bit := 8
	for _, g := range gaps {
		bit += int(g >> k) // the quotient's zeros are already there
		// The one bit, then the remainder above it.
		for b, v := bit, (uint64(g)&(1<<k-1))<<1|1; v != 0; {
			code[b>>3] |= byte(v << (b & 7))
			v >>= 8 - b&7
			b += 8 - b&7
		}
		bit += 1 + int(k)
	}
	return code
}

// riceK returns the k up to riceMaxK that codes gaps in the fewest bits,
// the least such k on a tie. Raising k by one adds a bit to each of the
// tapeChunk remainders and takes ⌈q/2⌉ from each quotient q = g>>k; the
// quotients' saving only falls as k grows, so the first k at which it
// no longer beats tapeChunk is the best.
func riceK(gaps *[tapeChunk]int64) uint {
	k := uint(0)
	for ; k < riceMaxK; k++ {
		saved := int64(0)
		for _, g := range gaps {
			if saved += (g>>k + 1) >> 1; saved > tapeChunk {
				break
			}
		}
		if saved <= tapeChunk {
			break
		}
	}
	return k
}

// classChunk holds a chunk of deadline classes as 2-bit codes, class i
// in bits 2·(i%4) and up of byte i/4.
type classChunk [tapeChunk / 4]byte

type classTape = packedTape[*classChunk]

func newClassTape(classes func() (next func() DeadlineClass)) *classTape {
	return &classTape{
		fresh: func() func() int64 {
			next := classes()
			return func() int64 { return int64(next()) }
		},
		pack: packClasses,
	}
}

func packClasses(classes *[tapeChunk]int64) *classChunk {
	ch := new(classChunk)
	for i, c := range classes {
		ch[i/4] |= byte(c) << (2 * (i % 4))
	}
	return ch
}

// The process-wide tapes, one per distinct key. Like DefaultCurveStore
// they are process-wide because sim.New draws them from a plain-value
// Config. Beside its values a tape costs ≈100 B and a slice header or
// pointer per chunk: a seed whose streams are read to 1,030 draws each
// retains ≈2.7 kB, 9 Rice chunks of ≈200 bytes plus 9 of 32 bytes of
// classes (TestTapeRetainsOnlyValues), so neither memo evicts.
var (
	arrivalTapes  parallel.Memo[arrivalKey, *gapTape]
	deadlineTapes parallel.Memo[int64, *classTape]
)

func arrivalTapeFor(seed int64, rate float64) *gapTape {
	t, _ := arrivalTapes.Get(arrivalKey{seed: seed, rate: rate}, func() (*gapTape, error) {
		return newGapTape(func() func() int64 {
			return (&ArrivalStream{rng: rand.New(rand.NewSource(seed)), rate: rate}).Next
		}), nil
	})
	return t
}

func deadlineTapeFor(seed int64) *classTape {
	t, _ := deadlineTapes.Get(seed, func() (*classTape, error) {
		return newClassTape(func() func() DeadlineClass { return NewDeadlineStream(seed).Next }), nil
	})
	return t
}
