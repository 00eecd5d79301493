package workload

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestTapeCursorsShareOneStream: independent cursors over the same
// (seed, rate) replay the identical timestamp sequence — the memoized
// tape is indistinguishable from the per-generator streams it replaced.
func TestTapeCursorsShareOneStream(t *testing.T) {
	a := NewArrivals(42, DefaultProbesPerTw, 1_000_000)
	b := NewArrivals(42, DefaultProbesPerTw, 1_000_000)
	for i := 0; i < 3*tapeChunk; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatalf("draw %d: cursors over one tape diverge (%d vs %d)", i, va, vb)
		}
	}
	// A different seed or rate is a different tape.
	c := NewArrivals(43, DefaultProbesPerTw, 1_000_000)
	d := NewArrivals(42, DefaultProbesPerTw, 2_000_000)
	if c.Next() == NewArrivals(42, DefaultProbesPerTw, 1_000_000).Next() &&
		d.Next() == NewArrivals(42, DefaultProbesPerTw, 1_000_000).Next() {
		t.Error("distinct seeds/rates reuse one tape")
	}

	ma, mb := NewDeadlineMix(7), NewDeadlineMix(7)
	for i := 0; i < 3*tapeChunk; i++ {
		if ma.Next() != mb.Next() {
			t.Fatalf("deadline draw %d diverges between cursors", i)
		}
	}
}

// TestTapeConcurrentCursors: many goroutines extending and reading one
// tape concurrently each observe the same prefix (exercised under
// -race by the CI race job).
func TestTapeConcurrentCursors(t *testing.T) {
	const draws = 5 * tapeChunk
	want := make([]int64, draws)
	ref := NewArrivals(1234, DefaultProbesPerTw, 1_000_000)
	for i := range want {
		want[i] = ref.Next()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := NewArrivals(1234, DefaultProbesPerTw, 1_000_000)
			for i := 0; i < draws; i++ {
				if v := cur.Next(); v != want[i] {
					t.Errorf("draw %d: got %d, want %d", i, v, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTapeDrawsEachValueOnce: a tape keeps no generator and holds what
// its cursors read, rounded up to a chunk. The cursor that reads past the
// tape's end draws the next chunk with its own generator, skipped forward
// past the chunks other cursors drew. Every read must see exactly what a
// fresh stream draws, a single cursor must seed one generator and draw
// each value it holds once, a chunk handed out must not change after
// later extensions, and concurrent readers must agree (exercised under
// -race by the CI race job).
func TestTapeDrawsEachValueOnce(t *testing.T) {
	const tw = 1_000_000
	seed := unusedSeeds(1)
	wantArr, wantDl := make([]int64, 20_000), make([]DeadlineClass, 20_000)
	as, ds := NewArrivalStream(seed, DefaultProbesPerTw, tw), NewDeadlineStream(seed)
	for i := range wantArr {
		wantArr[i], wantDl[i] = as.Next(), ds.Next()
	}
	var freshes, draws int
	arrTape := func() *tape[int64] {
		return countingTape(&freshes, &draws, func() func() int64 {
			return NewArrivalStream(seed, DefaultProbesPerTw, tw).Next
		})
	}
	dlTape := func() *tape[DeadlineClass] {
		return countingTape(&freshes, &draws, func() func() DeadlineClass { return NewDeadlineStream(seed).Next })
	}

	for _, n := range []int{1, tapeChunk - 1, tapeChunk, tapeChunk + 1, 775, 20_000} {
		want := (n + tapeChunk - 1) / tapeChunk * tapeChunk
		freshes, draws = 0, 0
		readTo(t, "arrivals", &cursor[int64]{t: arrTape()}, n, wantArr)
		if freshes != 1 || draws != want {
			t.Errorf("reading %d arrivals: %d generators, %d draws; want 1, %d", n, freshes, draws, want)
		}
		freshes, draws = 0, 0
		readTo(t, "classes", &cursor[DeadlineClass]{t: dlTape()}, n, wantDl)
		if freshes != 1 || draws != want {
			t.Errorf("reading %d classes: %d generators, %d draws; want 1, %d", n, freshes, draws, want)
		}
	}

	// A extends chunks 0–1, B reads them and extends 2–3, then A reads
	// on into chunk 6 and must skip its generator past B's chunks.
	freshes = 0
	shared := arrTape()
	a, b := &cursor[int64]{t: shared}, &cursor[int64]{t: shared}
	readTo(t, "cursor A", a, 2*tapeChunk, wantArr)
	held, clone := a.c, *a.c
	readTo(t, "cursor B", b, 4*tapeChunk, wantArr)
	readTo(t, "cursor A", a, 6*tapeChunk+1, wantArr)
	if len(shared.chunks) != 7 || freshes != 2 {
		t.Errorf("interleaved: %d chunks from %d generators, want 7 from 2", len(shared.chunks), freshes)
	}
	if *held != clone {
		t.Error("a chunk handed out changed after later extensions")
	}

	// Eight goroutines reading one memoized tape at once.
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, m := NewArrivals(seed, DefaultProbesPerTw, tw), NewDeadlineMix(seed)
			for i := range 5*tapeChunk + 37*g {
				if v, c := a.Next(), m.Next(); v != wantArr[i] || c != wantDl[i] {
					t.Errorf("goroutine %d: value %d is (%d, %v), fresh streams drew (%d, %v)", g, i, v, c, wantArr[i], wantDl[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// readTo reads c on to value n and fails at the first value that is not
// the fresh stream's.
func readTo[T comparable](t *testing.T, what string, c *cursor[T], n int, want []T) {
	t.Helper()
	for c.pos < n {
		i := c.pos
		if v := c.Next(); v != want[i] {
			t.Fatalf("%s: value %d = %v, fresh stream drew %v", what, i, v, want[i])
		}
	}
}

// countingTape is a tape whose fresh counts the generators it makes and
// the values they draw.
func countingTape[T any](freshes, draws *int, fresh func() func() T) *tape[T] {
	return &tape[T]{fresh: func() func() T {
		*freshes++
		next := fresh()
		return func() T { *draws++; return next() }
	}}
}

// nextSeed is the first seed no test has memoized a tape for yet.
var nextSeed int64 = 1 << 40

// unusedSeeds reserves n seeds whose tapes start empty, under any
// go test -count, and returns the first.
func unusedSeeds(n int64) int64 {
	nextSeed += n
	return nextSeed - n
}

// TestTapeRetainsOnlyValues pins what the tape memo keeps alive per
// seed: the values read rounded up to a chunk, 1,088 of each stream for
// 1,030 reads, and a small header, not a generator's rand.Source
// (≈4.9 kB per stream), and one byte per deadline class. It measures
// ≈10.5 kB; a tape that doubled its length would keep 2,048 values of
// each stream, ≈18.7 kB.
func TestTapeRetainsOnlyValues(t *testing.T) {
	if s := unsafe.Sizeof(DeadlineClass(0)); s != 1 {
		t.Errorf("a DeadlineClass takes %d bytes, want 1", s)
	}
	const seeds, draws, limit = 64, 1_030, 11_070
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC() // twice: a sync.Pool's victim cache outlives one cycle
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := unusedSeeds(seeds)
	before := liveHeap()
	for i := range seeds {
		seed := base + int64(i)
		a, m := NewArrivals(seed, DefaultProbesPerTw, 1_000_000), NewDeadlineMix(seed)
		for range draws {
			a.Next()
			m.Next()
		}
	}
	if per := (liveHeap() - before) / seeds; per > limit {
		t.Errorf("the tape memo retains %d B per seed for %d arrivals + %d classes, want <= %d", per, draws, draws, limit)
	} else {
		t.Logf("%d B retained per seed", per)
	}
}
