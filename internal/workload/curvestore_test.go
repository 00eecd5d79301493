package workload

import (
	"sync"
	"testing"

	"cmpqos/internal/cache"
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

// TestCurveStoreSingleflight: concurrent requests for one key run the
// compute function exactly once and all observe the same curve.
func TestCurveStoreSingleflight(t *testing.T) {
	s := NewCurveStore()
	key := CurveKey{Bench: "x", Geometry: probeCfg(), Seed: 1, Warmup: 1, Measure: 1, Every: 1}
	var wg sync.WaitGroup
	curves := make([]cache.MissCurve, 16)
	for i := range curves {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			curves[i] = s.Curve(key, func() cache.MissCurve {
				return cache.MissCurve{Ratio: []float64{1, 0.5}}
			})
		}(i)
	}
	wg.Wait()
	if got := s.Computes(); got != 1 {
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
	s := NewCurveStore()
	base := CurveKey{Bench: "bzip2", InputSet: "ref", Geometry: probeCfg(),
		Seed: 42, JobID: 0, Warmup: 10, Measure: 20, Every: 1}
	variants := []CurveKey{base, base, base, base, base, base}
	variants[1].Bench = "mcf"
	variants[2].Geometry.Ways = 8
	variants[3].Seed = 43
	variants[4].Measure = 21
	variants[5].Every = 8
	for _, k := range variants {
		s.Curve(k, func() cache.MissCurve { return cache.MissCurve{Ratio: []float64{1}} })
	}
	if got := s.Computes(); got != 6 {
		t.Errorf("computes = %d, want 6 (one per distinct key)", got)
	}
	s.Curve(base, func() cache.MissCurve { return cache.MissCurve{Ratio: []float64{1}} })
	if got := s.Computes(); got != 6 {
		t.Errorf("computes after repeat = %d, want still 6", got)
	}
}

// TestDefaultStoreMemoizesProbeCurve: two identical ProbeCurve calls
// probe the stream once.
func TestDefaultStoreMemoizesProbeCurve(t *testing.T) {
	DefaultCurveStore.Reset()
	defer DefaultCurveStore.Reset()
	p := MustByName("hmmer")
	cfg := probeCfg()
	a := p.ProbeCurve(cfg, 5_000, 5_000)
	before := DefaultCurveStore.Computes()
	b := p.ProbeCurve(cfg, 5_000, 5_000)
	if DefaultCurveStore.Computes() != before {
		t.Error("second identical ProbeCurve recomputed the curve")
	}
	for w := range a.Ratio {
		if a.Ratio[w] != b.Ratio[w] {
			t.Errorf("memoized curve differs at %d ways", w)
		}
	}
}

// TestSampledProbeCurveClose: the sampled workload curve tracks the
// exact one within the documented bound on a real profile.
func TestSampledProbeCurveClose(t *testing.T) {
	DefaultCurveStore.Reset()
	defer DefaultCurveStore.Reset()
	p := MustByName("bzip2")
	cfg := probeCfg()
	exact := p.ProbeCurveSeeded(cfg, 42, 0, 80_000, 120_000)
	sampled := p.ProbeCurveSampled(cfg, 42, 0, 80_000, 120_000, 8)
	for w := 1; w <= cfg.Ways; w++ {
		d := sampled.At(w) - exact.At(w)
		if d < -0.05 || d > 0.05 {
			t.Errorf("ways=%d: sampled %v vs exact %v beyond the 0.05 bound",
				w, sampled.At(w), exact.At(w))
		}
	}
}
