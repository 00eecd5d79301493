package workload

import (
	"encoding/binary"
	"sync"
	"testing"
)

// tape is the reference the packed tapes are held to: one stream's
// values in chunks of tapeChunk, each value at its full width, drawn by
// a generator that fresh starts anew at the stream's first value. A
// chunk is never written once it is on the tape.
type tape[T any] struct {
	mu     sync.Mutex
	fresh  func() (next func() T)
	chunks []*[tapeChunk]T
}

// cursor reads a reference tape from its first value, with the
// extension rule of packedCursor: the cursor that reads past the tape's
// last chunk draws the next one with its own generator, skipped past the
// chunks other cursors drew meanwhile.
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

// FuzzTapeRoundTrip holds the packed tapes to the reference: gaps (a
// run of uvarints, each below 2^63) and classes (one per byte, modulo
// 3) repeat to form two endless streams, and real Arrivals and
// DeadlineMix cursors must read the values a reference cursor reads —
// one cursor alone, two interleaved on one tape (the first stops after
// split values, the second reads halfway on from there, the first reads
// to the end past the second's chunks, then the second does), and four
// goroutines on one tape at once. Every read is of n values, up to five
// chunks. Gaps are differences, so a stream whose stamps wrap past
// 2^63 reads back the same wrapped stamps. The seed corpus holds each
// case of the Rice decoder and each class at each position of a byte.
func FuzzTapeRoundTrip(f *testing.F) {
	uvarints := func(gs ...uint64) []byte {
		var b []byte
		for _, g := range gs {
			b = binary.AppendUvarint(b, g)
		}
		return b
	}
	// outlier is a chunk of tapeChunk-1 gaps of small, then one of big.
	outlier := func(small, big uint64) []byte {
		gs := make([]uint64, tapeChunk)
		for i := range gs {
			gs[i] = small
		}
		gs[tapeChunk-1] = big
		return uvarints(gs...)
	}
	everyPosition := []byte{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2} // class c at byte position i%4, every c and i
	for _, gs := range [][]byte{
		uvarints(0),                     // k = 0: each gap a lone one bit, 16 bytes of codes
		uvarints(100),                   // k = 6: 8-bit codes, the last ending on the chunk's last bit
		outlier(1, 1_000),               // k = 2: a 250-bit zero run past a whole word
		outlier(1<<55, 1<<59),           // k = 56: a 56-bit remainder after 8 zeros, past the word
		uvarints(3<<61-1, 1<<62-1),      // k at riceMaxK, 61 uncapped; the stamps wrap
		uvarints(1<<63 - 1),             // the largest gap
		uvarints(5, 0, 1<<20, 1<<40, 3), // mixed
	} {
		f.Add(gs, everyPosition, uint16(3*tapeChunk+5), uint16(tapeChunk+1))
	}
	f.Add(uvarints(1_000, 2_000_000), []byte{2, 2, 1}, uint16(tapeChunk), uint16(0))
	f.Add([]byte{}, []byte{}, uint16(1), uint16(1))

	f.Fuzz(func(t *testing.T, gapBytes, classBytes []byte, n, split uint16) {
		var gaps []int64
		for b := gapBytes; len(b) > 0; {
			g, w := binary.Uvarint(b)
			if w <= 0 {
				break
			}
			gaps, b = append(gaps, int64(g&(1<<63-1))), b[w:]
		}
		if len(gaps) == 0 {
			gaps = []int64{0}
		}
		classes := []DeadlineClass{DeadlineTight}
		if len(classBytes) > 0 {
			classes = classes[:0]
			for _, b := range classBytes {
				classes = append(classes, DeadlineClass(b%3))
			}
		}
		stamps := func() func() int64 {
			i, s := 0, int64(0)
			return func() int64 {
				s += gaps[i%len(gaps)]
				i++
				return s
			}
		}
		classStream := func() func() DeadlineClass {
			i := 0
			return func() DeadlineClass {
				c := classes[i%len(classes)]
				i++
				return c
			}
		}
		reads := int(n)%(5*tapeChunk) + 1
		wantArr := readAll(&cursor[int64]{t: &tape[int64]{fresh: stamps}}, reads)
		wantDl := readAll(&cursor[DeadlineClass]{t: &tape[DeadlineClass]{fresh: classStream}}, reads)

		type pair struct {
			a *Arrivals
			m *DeadlineMix
		}
		newPair := func(at *gapTape, ct *classTape) pair {
			return pair{&Arrivals{packedCursor: packedCursor[[]byte]{t: at}}, &DeadlineMix{packedCursor: packedCursor[*classChunk]{t: ct}}}
		}
		// read reads p on to value to and reports whether every value
		// was the reference's.
		read := func(what string, p pair, to int) bool {
			for p.a.pos < to {
				i := p.a.pos
				if v, c := p.a.Next(), p.m.Next(); v != wantArr[i] || c != wantDl[i] {
					t.Errorf("%s: value %d is (%d, %v), the reference reads (%d, %v)", what, i, v, c, wantArr[i], wantDl[i])
					return false
				}
			}
			return true
		}

		if !read("single cursor", newPair(newGapTape(stamps), newClassTape(classStream)), reads) {
			return
		}

		at, ct := newGapTape(stamps), newClassTape(classStream)
		a, b := newPair(at, ct), newPair(at, ct)
		s1 := int(split) % reads
		s2 := s1 + (reads-s1)/2
		if !read("cursor A", a, s1) || !read("cursor B", b, s2) || !read("cursor A", a, reads) || !read("cursor B", b, reads) {
			return
		}

		at, ct = newGapTape(stamps), newClassTape(classStream)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				read("concurrent cursor", newPair(at, ct), reads)
			}()
		}
		wg.Wait()
	})
}

// readAll reads n values from a reference cursor.
func readAll[T any](c *cursor[T], n int) []T {
	vs := make([]T, n)
	for i := range vs {
		vs[i] = c.Next()
	}
	return vs
}
