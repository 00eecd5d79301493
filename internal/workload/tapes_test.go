package workload

import (
	"runtime"
	"slices"
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

// TestTapeRegrowthRedrawsIdenticalPrefix: a tape keeps no generator, so
// every extension draws its longer prefix again from the key. Cursors
// read across each extension boundary must see exactly what a fresh
// stream draws, a snapshot taken before an extension must not change
// after it, growth must stay geometric, and concurrent extenders must
// agree (exercised under -race by the CI race job).
func TestTapeRegrowthRedrawsIdenticalPrefix(t *testing.T) {
	const tw = 1_000_000
	seed := unusedSeeds(2)
	lengths := []int{1, tapeChunk - 1, tapeChunk, tapeChunk + 1, 3*tapeChunk + 7, 20_000}
	wantArr, wantDl := make([]int64, 20_000), make([]DeadlineClass, 20_000)
	as, ds := NewArrivalStream(seed, DefaultProbesPerTw, tw), NewDeadlineStream(seed)
	for i := range wantArr {
		wantArr[i], wantDl[i] = as.Next(), ds.Next()
	}

	var arrSnaps [][2][]int64
	var dlSnaps [][2][]DeadlineClass
	for _, n := range lengths {
		arr, dl := arrivalTapeFor(seed, DefaultProbesPerTw/tw), deadlineTapeFor(seed)
		s := arr.prefix(1)
		arrSnaps = append(arrSnaps, [2][]int64{s, slices.Clone(s)})
		c := dl.prefix(1)
		dlSnaps = append(dlSnaps, [2][]DeadlineClass{c, slices.Clone(c)})

		a, m := NewArrivals(seed, DefaultProbesPerTw, tw), NewDeadlineMix(seed)
		for i := range n {
			if v := a.Next(); v != wantArr[i] {
				t.Fatalf("reading %d: arrival %d = %d, fresh stream drew %d", n, i, v, wantArr[i])
			}
			if v := m.Next(); v != wantDl[i] {
				t.Fatalf("reading %d: deadline %d = %v, fresh stream drew %v", n, i, v, wantDl[i])
			}
		}
	}
	for i, s := range arrSnaps {
		if !slices.Equal(s[0], s[1]) {
			t.Errorf("arrival snapshot %d changed after a later extension", i)
		}
	}
	for i, s := range dlSnaps {
		if !slices.Equal(s[0], s[1]) {
			t.Errorf("deadline snapshot %d changed after a later extension", i)
		}
	}

	// Every extension boundary, asked for directly, counting the draws.
	draws := 0
	counted := &tape[int64]{fresh: func() func() int64 {
		next := NewArrivalStream(seed, DefaultProbesPerTw, tw).Next
		return func() int64 { draws++; return next() }
	}}
	for _, n := range lengths {
		got := counted.prefix(n)
		if len(got) < n || !slices.Equal(got[:n], wantArr[:n]) {
			t.Fatalf("prefix(%d): %d values, or not the fresh stream's prefix", n, len(got))
		}
		if draws >= 2*len(got) {
			t.Errorf("prefix(%d): %d draws for a tape of %d values; growth is not geometric", n, draws, len(got))
		}
	}

	// Eight goroutines extending one tape at once.
	shared := arrivalTapeFor(seed+1, DefaultProbesPerTw/tw)
	want := make([]int64, 5*tapeChunk+3)
	ref := NewArrivalStream(seed+1, DefaultProbesPerTw, tw)
	for i := range want {
		want[i] = ref.Next()
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1 + g; n <= len(want); n += 37 + g {
				if got := shared.prefix(n); !slices.Equal(got[:n], want[:n]) {
					t.Errorf("goroutine %d: prefix(%d) is not the fresh stream's prefix", g, n)
					return
				}
			}
		}()
	}
	wg.Wait()
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
// seed: the drawn values and a small header, not a generator's
// rand.Source (≈4.9 kB per stream), and one byte per deadline class.
func TestTapeRetainsOnlyValues(t *testing.T) {
	if s := unsafe.Sizeof(DeadlineClass(0)); s != 1 {
		t.Errorf("a DeadlineClass takes %d bytes, want 1", s)
	}
	const seeds, draws, limit = 64, 1_000, 12 << 10
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
