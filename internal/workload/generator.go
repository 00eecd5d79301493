package workload

import (
	"math/rand"

	"cmpqos/internal/cache"
)

// Stream is the synthetic L2 address-trace generator for one job. Each
// access lands in one of the profile's hot regions (random block within
// the region, so residency degrades gracefully with allocated capacity
// rather than LRU-thrashing) or in a non-reusing sequential stream that
// models compulsory misses. Different jobs are placed in disjoint slices
// of the address space so their blocks never alias.
type Stream struct {
	rng        *rand.Rand
	bases      []uint64 // base address per region
	blocks     []int    // blocks per region
	cumWeight  []float64
	streamBase uint64
	streamPos  uint64
	streamLen  uint64 // blocks in the streaming window before wrap
	blockSize  uint64
}

// jobSpaceBits is the log2 size of each job's private address slice.
const jobSpaceBits = 36 // 64 GB per job; far beyond any footprint here

// WriteFraction is the modeled fraction of memory references that are
// stores (write-allocate, write-back caches); SPEC integer codes sit
// near 30%.
const WriteFraction = 0.30

// NewStream builds a deterministic address stream for this profile,
// seeded independently per (seed, jobID) and confined to jobID's address
// slice.
func (p Profile) NewStream(seed int64, jobID int) *Stream {
	const blockSize = 64
	s := &Stream{
		rng:       rand.New(rand.NewSource(seed ^ int64(jobID)*0x1e3779b97f4a7c15)),
		blockSize: blockSize,
	}
	base := uint64(jobID+1) << jobSpaceBits
	cum := 0.0
	for _, r := range p.Regions {
		s.bases = append(s.bases, base)
		nb := r.SizeBytes / blockSize
		if nb < 1 {
			nb = 1
		}
		s.blocks = append(s.blocks, nb)
		cum += r.Weight
		s.cumWeight = append(s.cumWeight, cum)
		base += uint64(r.SizeBytes) + 1<<24 // pad regions apart
	}
	s.streamBase = base
	s.streamLen = 1 << 24 // 16M blocks = 1 GB of streamed data before wrap
	return s
}

// Next produces the next block-granular address.
func (s *Stream) Next() cache.Addr {
	x := s.rng.Float64()
	for i, cw := range s.cumWeight {
		if x < cw {
			blk := s.rng.Intn(s.blocks[i])
			return cache.Addr(s.bases[i] + uint64(blk)*s.blockSize)
		}
	}
	// Streaming access: strictly sequential, wrapping far beyond any
	// cache size so it never re-hits.
	a := s.streamBase + (s.streamPos%s.streamLen)*s.blockSize
	s.streamPos++
	return cache.Addr(a)
}

var _ cache.AddrStream = (*Stream)(nil)

// ProbeCurve measures this profile's miss-ratio-vs-ways curve from the
// synthetic stream. It is the measurement behind Figure 4 and Table 1
// in trace mode. Since PR 2 it runs the one-pass stack-distance
// profiler (bit-exact with the historical per-allocation replays under
// LRU, at 1/W of the work) and memoizes the result in
// DefaultCurveStore; the stream is seeded with the historical (42, 0).
func (p Profile) ProbeCurve(cfg cache.Config, warmup, measure int) cache.MissCurve {
	return p.ProbeCurveSeeded(cfg, 42, 0, warmup, measure)
}

// ProbeCurveSeeded is ProbeCurve with explicit stream seeding, for call
// sites that derive the stream from a simulation seed.
func (p Profile) ProbeCurveSeeded(cfg cache.Config, seed int64, jobID, warmup, measure int) cache.MissCurve {
	return p.probeCurve(cfg, seed, jobID, warmup, measure, 1)
}

// ProbeCurveSampled is ProbeCurveSeeded restricted to every `every`-th
// cache set (the paper's §4.3 sampling discipline; see
// cache.SinglePassMissCurveSampled for the error bound).
func (p Profile) ProbeCurveSampled(cfg cache.Config, seed int64, jobID, warmup, measure, every int) cache.MissCurve {
	return p.probeCurve(cfg, seed, jobID, warmup, measure, every)
}

func (p Profile) probeCurve(cfg cache.Config, seed int64, jobID, warmup, measure, every int) cache.MissCurve {
	key := CurveKey{
		Bench: p.Name, InputSet: p.InputSet, Geometry: cfg,
		Seed: seed, JobID: jobID, Warmup: warmup, Measure: measure, Every: every,
	}
	return DefaultCurveStore.Curve(key, func() cache.MissCurve {
		return cache.SinglePassMissCurveSampled(cfg, p.NewStream(seed, jobID), warmup, measure, every)
	})
}

// ProbeRatio measures the miss ratio at a single way allocation. It is
// served from the memoized full curve — the single-pass profiler makes
// the whole curve cost the same as one allocation's replay, so the
// other fifteen points come free for later callers — and is bit-exact
// with that replay over the same stream and window
// (TestProbeRatioMatchesProbeMissRatio).
func (p Profile) ProbeRatio(cfg cache.Config, seed int64, jobID, ways, warmup, measure int) float64 {
	return p.ProbeCurveSeeded(cfg, seed, jobID, warmup, measure).At(ways)
}
