package workload

import (
	"sync"
	"sync/atomic"
	"testing"

	"cmpqos/internal/cache"
	"cmpqos/internal/parallel"
)

// replayRatio is the reference the memoized single-pass curves are held
// to (internal/cache's tests keep the same one as ProbeMissRatio): the
// stream through a fresh single-owner partitioned cache at one way
// allocation, `warmup` accesses to populate, `measure` counted.
func replayRatio(cfg cache.Config, st cache.AddrStream, ways, warmup, measure int) float64 {
	c := cache.NewPartitioned(cfg)
	c.SetTarget(0, ways)
	c.SetClass(0, cache.ClassReserved)
	for i := 0; i < warmup; i++ {
		c.Access(0, st.Next())
	}
	c.ResetStats()
	for i := 0; i < measure; i++ {
		c.Access(0, st.Next())
	}
	return c.MissRatio(0)
}

// TestProbeCurveMatchesReplayPath pins the rewiring: the memoized
// single-pass ProbeCurve must be bit-exact with one replay per way
// allocation over the real synthetic streams.
func TestProbeCurveMatchesReplayPath(t *testing.T) {
	cfg := probeCfg()
	for _, name := range []string{"bzip2", "gobmk", "libquantum"} {
		p := MustByName(name)
		replay := cache.MissCurve{Ratio: make([]float64, cfg.Ways+1)}
		replay.Ratio[0] = 1
		for w := 1; w <= cfg.Ways; w++ {
			replay.Ratio[w] = replayRatio(cfg, p.NewStream(42, 0), w, 60_000, 90_000)
		}
		replay.Monotonic()
		single := p.ProbeCurve(cfg, 60_000, 90_000)
		for w := range replay.Ratio {
			if replay.Ratio[w] != single.Ratio[w] {
				t.Errorf("%s at %d ways: replay %v != single-pass %v",
					name, w, replay.Ratio[w], single.Ratio[w])
			}
		}
	}
}

// TestProbeRatioMatchesProbeMissRatio pins the sim-engine rewiring: the
// tw-probe path must see exactly the value the per-allocation replay
// produces.
func TestProbeRatioMatchesProbeMissRatio(t *testing.T) {
	cfg := probeCfg()
	p := MustByName("bzip2")
	for _, ways := range []int{1, 7, 16} {
		want := replayRatio(cfg, p.NewStream(5, 0), ways, 0, 50_000)
		if got := p.ProbeRatio(cfg, 5, 0, ways, 0, 50_000); got != want {
			t.Errorf("ways=%d: ProbeRatio %v != replay %v", ways, got, want)
		}
	}
}

// curveMemo is a private memo of DefaultCurveStore's type, so the
// key tests count their own entries.
type curveMemo = parallel.Memo[CurveKey, cache.MissCurve]

// TestCurveStoreSingleflight: concurrent requests for one key run the
// compute function exactly once and all observe the same curve.
func TestCurveStoreSingleflight(t *testing.T) {
	var s curveMemo
	var computes atomic.Int64
	key := CurveKey{Bench: "x", Geometry: probeCfg(), Seed: 1, Warmup: 1, Measure: 1}
	var wg sync.WaitGroup
	curves := make([]cache.MissCurve, 16)
	for i := range curves {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			curves[i], _ = s.Get(key, func() (cache.MissCurve, error) {
				computes.Add(1)
				return cache.MissCurve{Ratio: []float64{1, 0.5}}, nil
			})
		}(i)
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("computes = %d, want 1", got)
	}
	for i, c := range curves {
		if len(c.Ratio) != 2 || c.Ratio[1] != 0.5 {
			t.Errorf("goroutine %d saw curve %v", i, c.Ratio)
		}
	}
	if s.Len() != 1 {
		t.Errorf("store holds %d entries, want 1", s.Len())
	}
}

// TestCurveStoreDistinguishesKeys: any field differing must miss.
func TestCurveStoreDistinguishesKeys(t *testing.T) {
	var s curveMemo
	base := CurveKey{Bench: "bzip2", InputSet: "ref", Geometry: probeCfg(),
		Seed: 42, JobID: 0, Warmup: 10, Measure: 20}
	variants := []CurveKey{base, base, base, base, base}
	variants[1].Bench = "mcf"
	variants[2].Geometry.Ways = 8
	variants[3].Seed = 43
	variants[4].Measure = 21
	probe := func(k CurveKey) {
		s.Get(k, func() (cache.MissCurve, error) { return cache.MissCurve{Ratio: []float64{1}}, nil })
	}
	for _, k := range variants {
		probe(k)
	}
	if got := s.Len(); got != 5 {
		t.Errorf("Len = %d, want 5 (one per distinct key)", got)
	}
	probe(base)
	if got := s.Len(); got != 5 {
		t.Errorf("Len after repeat = %d, want still 5", got)
	}
}

// nextProbeWarmup is the first warm-up length no run of
// TestDefaultStoreMemoizesProbeCurve has probed yet in this process.
var nextProbeWarmup = 5_001

// TestDefaultStoreMemoizesProbeCurve: two identical ProbeCurve calls
// probe the stream once. The window is one no other test, and no earlier
// run of this one under go test -count, probes, so the process-wide
// store grows by exactly one entry.
func TestDefaultStoreMemoizesProbeCurve(t *testing.T) {
	p := MustByName("hmmer")
	cfg := probeCfg()
	warmup := nextProbeWarmup
	nextProbeWarmup++
	before := DefaultCurveStore.Len()
	a := p.ProbeCurve(cfg, warmup, 5_000)
	b := p.ProbeCurve(cfg, warmup, 5_000)
	if got := DefaultCurveStore.Len() - before; got != 1 {
		t.Errorf("two identical ProbeCurve calls added %d store entries, want 1", got)
	}
	for w := range a.Ratio {
		if a.Ratio[w] != b.Ratio[w] {
			t.Errorf("memoized curve differs at %d ways", w)
		}
	}
}
