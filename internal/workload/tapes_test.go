package workload

import (
	"math"
	"runtime"
	"sync"
	"testing"
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
// seed. Making a seed's two tapes keeps their headers and memo slots,
// 168 B, not a generator's rand.Source (≈4.9 kB per stream); a batch in
// which the memo's maps split a table measures up to ≈1.1 kB more.
// Reading them keeps the values read: 1,152 of each stream for 1,030
// reads (rounded up to a chunk), at the width the tape stores them (a
// Rice-coded gap per arrival, ≈1.6 bytes at this rate, a 2-bit code per
// deadline class), 2,672 B; 4-byte gaps would keep ≈2.7 kB more, 8-byte
// stamps ≈7.3 kB more, a byte per class ≈0.9 kB more. It also pins what
// a run allocates for its two cursors: the malloc size classes of an
// Arrivals (64 B) and a DeadlineMix (32 B) sum to 96 B.
func TestTapeRetainsOnlyValues(t *testing.T) {
	const pairs, cursorBudget = 1_000, 96
	seed := unusedSeeds(1)
	NewArrivals(seed, DefaultProbesPerTw, 1_000_000) // memoize both tapes
	NewDeadlineMix(seed)
	// The fewest bytes of three tries: whatever else the process
	// allocates meanwhile only adds.
	per := uint64(math.MaxUint64)
	for range 3 {
		keep := make([]any, 0, 2*pairs)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range pairs {
			keep = append(keep, NewArrivals(seed, DefaultProbesPerTw, 1_000_000), NewDeadlineMix(seed))
		}
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(keep)
		per = min(per, (m1.TotalAlloc-m0.TotalAlloc)/pairs)
	}
	if per > cursorBudget {
		t.Errorf("an Arrivals and a DeadlineMix allocate %d B, want <= %d", per, cursorBudget)
	}

	const seeds, draws, madeLimit, limit = 64, 1_030, 1_500, 2_800
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC() // twice: a sync.Pool's victim cache outlives one cycle
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// Each of three batches over fresh seeds counts what making their
	// tapes retains, then what reading them does, and the fewest bytes
	// of the three are kept for each: whatever else the process
	// allocates meanwhile only adds. The memo's maps split their tables
	// in bursts that can span all three batches, which the making
	// limit leaves room for; the reading ones insert nothing.
	made, retained := int64(math.MaxInt64), int64(math.MaxInt64)
	for range 3 {
		base := unusedSeeds(seeds)
		before := liveHeap()
		for i := range seeds {
			NewArrivals(base+int64(i), DefaultProbesPerTw, 1_000_000)
			NewDeadlineMix(base + int64(i))
		}
		mid := liveHeap()
		for i := range seeds {
			seed := base + int64(i)
			a, m := NewArrivals(seed, DefaultProbesPerTw, 1_000_000), NewDeadlineMix(seed)
			for range draws {
				a.Next()
				m.Next()
			}
		}
		made, retained = min(made, (mid-before)/seeds), min(retained, (liveHeap()-mid)/seeds)
	}
	if made > madeLimit {
		t.Errorf("making a seed's two tapes retains %d B, want <= %d", made, madeLimit)
	}
	if retained > limit {
		t.Errorf("the tape memo retains %d B per seed for %d arrivals + %d classes, want <= %d", retained, draws, draws, limit)
	}
	t.Logf("%d B per seed made, %d B read", made, retained)
}

// lastStamp keeps BenchmarkArrivalsNext's reads observable.
var lastStamp int64

// BenchmarkArrivalsNext prices decoding an arrival tape: an op is a new
// cursor reading the first 1,024 stamps of a tape already drawn that
// far, so it reads every chunk and draws none.
func BenchmarkArrivalsNext(b *testing.B) {
	const tw, reads = 1_000_000, 1_024
	seed := unusedSeeds(1)
	a := NewArrivals(seed, DefaultProbesPerTw, tw)
	for range reads {
		a.Next()
	}
	b.ResetTimer()
	for range b.N {
		a := NewArrivals(seed, DefaultProbesPerTw, tw)
		for range reads {
			a.Next()
		}
		lastStamp = a.stamp
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*reads), "ns/value")
}
