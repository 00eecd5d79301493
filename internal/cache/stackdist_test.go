package cache

import (
	"math/rand"
	"testing"
)

// synthStream is a deterministic in-package stand-in for the workload
// generator (which cannot be imported here without a cycle): accesses
// split between a few hot regions of different footprints and a
// never-reusing sequential stream, the same shape the real profiles
// realize.
type synthStream struct {
	rng       *rand.Rand
	bases     []uint64
	blocks    []int
	cumWeight []float64
	streamPos uint64
}

func newSynthStream(seed int64) *synthStream {
	s := &synthStream{rng: rand.New(rand.NewSource(seed))}
	base := uint64(1) << 36
	cum := 0.0
	for _, r := range []struct {
		size   int
		weight float64
	}{
		{192 << 10, 0.40},
		{640 << 10, 0.35},
		{2048 << 10, 0.15},
	} {
		s.bases = append(s.bases, base)
		s.blocks = append(s.blocks, r.size/64)
		cum += r.weight
		s.cumWeight = append(s.cumWeight, cum)
		base += uint64(r.size) + 1<<24
	}
	return s
}

func (s *synthStream) Next() Addr {
	x := s.rng.Float64()
	for i, cw := range s.cumWeight {
		if x < cw {
			return Addr(s.bases[i] + uint64(s.rng.Intn(s.blocks[i]))*64)
		}
	}
	a := uint64(1)<<40 + (s.streamPos%(1<<24))*64
	s.streamPos++
	return Addr(a)
}

// ProbeMissRatio is the reference the single-pass profiler is held to:
// the steady-state miss ratio of one stream at one way allocation,
// measured through the real cache — `warmup` accesses populate a fresh
// single-owner partitioned cache, then `measure` accesses are counted.
func ProbeMissRatio(cfg Config, st AddrStream, ways, warmup, measure int) float64 {
	c := NewPartitioned(cfg)
	c.SetTarget(0, ways)
	c.SetClass(0, ClassReserved)
	for i := 0; i < warmup; i++ {
		c.Access(0, st.Next())
	}
	c.ResetStats()
	for i := 0; i < measure; i++ {
		c.Access(0, st.Next())
	}
	return c.MissRatio(0)
}

// ProbeMissCurve is the whole reference curve: one ProbeMissRatio replay
// per way allocation 1..cfg.Ways. mk must return a fresh, deterministic
// stream each call so allocations are compared on the same accesses.
func ProbeMissCurve(cfg Config, mk func() AddrStream, warmup, measure int) MissCurve {
	curve := MissCurve{Ratio: make([]float64, cfg.Ways+1)}
	curve.Ratio[0] = 1
	for w := 1; w <= cfg.Ways; w++ {
		curve.Ratio[w] = ProbeMissRatio(cfg, mk(), w, warmup, measure)
	}
	return curve.Monotonic()
}

// TestSinglePassBitExactAcrossGeometries pins the tentpole claim: the
// one-pass stack-distance profiler reproduces ProbeMissCurve bit for
// bit under LRU, across every geometry the geometry experiment sweeps
// (1 MB/8-way, 2 MB/16-way, 4 MB/32-way) plus block-size and small-edge
// variants.
func TestSinglePassBitExactAcrossGeometries(t *testing.T) {
	geos := []Config{
		{SizeBytes: 1 << 20, Ways: 8, BlockSize: 64, Owners: 1, HitCycles: 10},
		{SizeBytes: 2 << 20, Ways: 16, BlockSize: 64, Owners: 1, HitCycles: 10},
		{SizeBytes: 4 << 20, Ways: 32, BlockSize: 64, Owners: 1, HitCycles: 10},
		{SizeBytes: 1 << 20, Ways: 16, BlockSize: 32, Owners: 1, HitCycles: 10},
		{SizeBytes: 2 << 20, Ways: 16, BlockSize: 128, Owners: 1, HitCycles: 10},
		{SizeBytes: 64 << 10, Ways: 1, BlockSize: 64, Owners: 1, HitCycles: 10},
		{SizeBytes: 128 << 10, Ways: 2, BlockSize: 64, Owners: 1, HitCycles: 10},
	}
	const warmup, measure = 40_000, 60_000
	for _, cfg := range geos {
		replay := ProbeMissCurve(cfg, func() AddrStream { return newSynthStream(7) }, warmup, measure)
		single := SinglePassMissCurve(cfg, newSynthStream(7), warmup, measure)
		if len(replay.Ratio) != len(single.Ratio) {
			t.Fatalf("%+v: curve lengths differ: %d vs %d", cfg, len(replay.Ratio), len(single.Ratio))
		}
		for w := range replay.Ratio {
			if replay.Ratio[w] != single.Ratio[w] {
				t.Errorf("%dKB/%d-way/%dB at %d ways: replay %v != single-pass %v",
					cfg.SizeBytes>>10, cfg.Ways, cfg.BlockSize, w, replay.Ratio[w], single.Ratio[w])
			}
		}
	}
}

// TestSinglePassBitExactZeroWarmup pins the cold-start case the sim
// engine's tw probes use (warmup 0): compulsory misses must be counted
// identically.
func TestSinglePassBitExactZeroWarmup(t *testing.T) {
	cfg := Config{SizeBytes: 2 << 20, Ways: 16, BlockSize: 64, Owners: 1, HitCycles: 10}
	for _, measure := range []int{1, 100, 20_000} {
		replay := ProbeMissCurve(cfg, func() AddrStream { return newSynthStream(11) }, 0, measure)
		single := SinglePassMissCurve(cfg, newSynthStream(11), 0, measure)
		for w := range replay.Ratio {
			if replay.Ratio[w] != single.Ratio[w] {
				t.Errorf("measure=%d at %d ways: replay %v != single-pass %v",
					measure, w, replay.Ratio[w], single.Ratio[w])
			}
		}
	}
}

// TestSinglePassRatioMatchesProbeMissRatio: the per-allocation probe the
// sim engine runs is one point of the single-pass curve.
func TestSinglePassRatioMatchesProbeMissRatio(t *testing.T) {
	cfg := Config{SizeBytes: 2 << 20, Ways: 16, BlockSize: 64, Owners: 1, HitCycles: 10}
	curve := SinglePassMissCurve(cfg, newSynthStream(3), 0, 50_000)
	for _, ways := range []int{1, 4, 7, 16} {
		want := ProbeMissRatio(cfg, newSynthStream(3), ways, 0, 50_000)
		if got := curve.At(ways); got != want {
			t.Errorf("ways=%d: single-pass %v != ProbeMissRatio %v", ways, got, want)
		}
	}
}

// TestSinglePassCurveMonotone: the stack-distance construction cannot
// produce a non-monotone curve.
func TestSinglePassCurveMonotone(t *testing.T) {
	cfg := Config{SizeBytes: 2 << 20, Ways: 16, BlockSize: 64, Owners: 1, HitCycles: 10}
	c := SinglePassMissCurve(cfg, newSynthStream(9), 20_000, 50_000)
	for w := 1; w < len(c.Ratio); w++ {
		if c.Ratio[w] > c.Ratio[w-1] {
			t.Errorf("curve rises at %d ways: %v > %v", w, c.Ratio[w], c.Ratio[w-1])
		}
	}
	if c.Ratio[0] != 1 {
		t.Errorf("Ratio[0] = %v, want 1", c.Ratio[0])
	}
}

// TestMonotonicClampsNoise: the clamp repairs an artificially noisy
// measured curve without touching already-monotone points.
func TestMonotonicClampsNoise(t *testing.T) {
	m := MissCurve{Ratio: []float64{1, 0.8, 0.82, 0.5, 0.51, 0.3}}
	m.Monotonic()
	want := []float64{1, 0.8, 0.8, 0.5, 0.5, 0.3}
	for i := range want {
		if m.Ratio[i] != want[i] {
			t.Errorf("Ratio[%d] = %v, want %v", i, m.Ratio[i], want[i])
		}
	}
}

// TestStackProfilerTruncationExact: a working set one block wider than
// the associativity cycles through a single set; the stack truncation
// at W entries must agree with the real cache (everything misses).
func TestStackProfilerTruncationExact(t *testing.T) {
	cfg := Config{SizeBytes: 4 << 10, Ways: 4, BlockSize: 64, Owners: 1, HitCycles: 1}
	sets := cfg.Sets()
	mk := func() AddrStream { return &cyclingStream{stride: uint64(sets * 64), n: 5} }
	rep := ProbeMissCurve(cfg, mk, 100, 400)
	single := SinglePassMissCurve(cfg, mk(), 100, 400)
	for w := range rep.Ratio {
		if rep.Ratio[w] != single.Ratio[w] {
			t.Errorf("at %d ways: replay %v != single-pass %v", w, rep.Ratio[w], single.Ratio[w])
		}
	}
	if single.At(cfg.Ways) != 1 {
		t.Errorf("cycling 5 blocks through 4 ways should always miss, got %v", single.At(cfg.Ways))
	}
}

// cyclingStream walks n blocks that all map to set 0, round-robin — the
// classic LRU worst case.
type cyclingStream struct {
	stride uint64
	n      uint64
	pos    uint64
}

func (c *cyclingStream) Next() Addr {
	a := Addr((c.pos % c.n) * c.stride)
	c.pos++
	return a
}
