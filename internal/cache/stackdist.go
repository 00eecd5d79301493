package cache

import "fmt"

// StackProfiler is a one-pass Mattson stack-distance miss-curve profiler.
//
// The direct way to measure the miss ratio at every way allocation 1..W
// replays the whole address stream through W fresh caches — W complete
// stream passes for one curve. For LRU victim selection that is W times
// more work than necessary: LRU has the stack (inclusion) property, so
// the contents of a w-way set are always the w most-recently-used blocks
// of that set, a prefix of the contents of any wider allocation. One
// recency-ordered stack per set therefore answers every allocation at
// once: an access whose block sits at depth d (0-based) in its set's
// stack hits in every cache with more than d ways and misses in the
// rest. Recording a histogram of depths over a single traversal yields
// exact hit/miss counts at every allocation simultaneously — bit-exact
// with the replays, which survive as the reference the profiler is held
// to (ProbeMissCurve in stackdist_test.go).
//
// The profiler optionally samples every Nth set, reusing the paper's
// §4.3 shadow-tag set-sampling discipline (the paper samples every 8th
// set): unsampled accesses are skipped entirely and the curve is
// measured over the sampled subset only. The estimator is exact per
// sampled set; the error is the across-set variation of the miss curve.
// For the synthetic workloads in this repo at the paper L2 geometry,
// sampling every 8th set keeps every point of the curve within ±0.02
// absolute miss ratio of the exact curve (the regression test bounds it
// at ±0.05, mirroring the shadow-tag accuracy ablation).
//
// The equivalence holds for the single-owner LRU probe the profiler
// models. Non-LRU victim policies (multi-owner partition contention,
// the Global scheme) have no stack property and no single-pass curve.
type StackProfiler struct {
	cfg        Config
	every      int
	ways       int
	setShift   uint
	everyShift uint
	tagShift   uint
	setMask    uint64
	stacks     []uint64 // per sampled set: ways tags in recency order (0 = MRU)
	depth      []int16  // valid stack entries per sampled set
	hist       []int64  // hist[d]: measured accesses found at stack depth d
	total      int64    // measured accesses on sampled sets
	counting   bool
}

// NewSampledStackProfiler builds a profiler covering every `every`-th
// set, the same sampling discipline as the §4.3 shadow tags. every must
// be a power of two that divides the set count; every == 1 profiles all
// sets (exact).
func NewSampledStackProfiler(cfg Config, every int) *StackProfiler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if every <= 0 || every&(every-1) != 0 {
		panic(fmt.Sprintf("cache: sampling interval %d must be a positive power of two", every))
	}
	sets := cfg.Sets()
	if sets%every != 0 || sets/every == 0 {
		panic(fmt.Sprintf("cache: sampling interval %d does not divide set count %d", every, sets))
	}
	sampled := sets / every
	return &StackProfiler{
		cfg:        cfg,
		every:      every,
		ways:       cfg.Ways,
		setShift:   uint(trailingZeros(cfg.BlockSize)),
		everyShift: uint(trailingZeros(every)),
		tagShift:   uint(trailingZeros(cfg.BlockSize)) + uint(trailingZeros(sets)),
		setMask:    uint64(sets - 1),
		stacks:     make([]uint64, sampled*cfg.Ways),
		depth:      make([]int16, sampled),
		hist:       make([]int64, cfg.Ways),
	}
}

// Record feeds one access into the profiler. Accesses to unsampled sets
// are ignored, exactly as the sampling hardware would.
func (p *StackProfiler) Record(addr Addr) {
	set := int((uint64(addr) >> p.setShift) & p.setMask)
	if set&(p.every-1) != 0 {
		return
	}
	tag := uint64(addr) >> p.tagShift
	base := (set >> p.everyShift) * p.ways
	stack := p.stacks[base : base+p.ways]
	n := int(p.depth[set>>p.everyShift])
	for d := 0; d < n; d++ {
		if stack[d] == tag {
			if p.counting {
				p.hist[d]++
				p.total++
			}
			copy(stack[1:d+1], stack[:d])
			stack[0] = tag
			return
		}
	}
	// Not on the stack: a miss at every allocation. A block pushed below
	// depth W would be evicted even from the widest cache, so the stack
	// is truncated at W entries; its re-access correctly lands here.
	if p.counting {
		p.total++
	}
	keep := n
	if keep == p.ways {
		keep = p.ways - 1
	} else {
		p.depth[set>>p.everyShift] = int16(n + 1)
	}
	copy(stack[1:keep+1], stack[:keep])
	stack[0] = tag
}

// StartMeasure ends the warmup phase: stack contents are kept, counters
// are zeroed, and subsequent Record calls are counted — the single-pass
// analogue of a cache's post-warmup ResetStats.
func (p *StackProfiler) StartMeasure() {
	p.counting = true
	for i := range p.hist {
		p.hist[i] = 0
	}
	p.total = 0
}

// Curve converts the depth histogram into the miss-ratio curve: the
// hits at allocation w are the accesses with depth < w, so one
// cumulative sweep yields every point. The result is monotone by
// construction (hits only grow with w); the Monotonic clamp is applied
// anyway so every measured curve in the repo carries the same guarantee.
func (p *StackProfiler) Curve() MissCurve {
	curve := MissCurve{Ratio: make([]float64, p.cfg.Ways+1)}
	curve.Ratio[0] = 1
	if p.total == 0 {
		// Matches Partitioned.MissRatio's 0-accesses convention.
		return curve
	}
	hits := int64(0)
	for w := 1; w <= p.cfg.Ways; w++ {
		hits += p.hist[w-1]
		curve.Ratio[w] = float64(p.total-hits) / float64(p.total)
	}
	return curve.Monotonic()
}

// SinglePassMissCurve measures the stream's miss ratio at every way
// allocation 1..cfg.Ways in one traversal: `warmup` accesses populate
// the stacks, then `measure` accesses are counted. For the single-owner
// LRU probe this is bit-exact with one replay per allocation over the
// same stream, at 1/W of the work.
func SinglePassMissCurve(cfg Config, st AddrStream, warmup, measure int) MissCurve {
	return SinglePassMissCurveSampled(cfg, st, warmup, measure, 1)
}

// SinglePassMissCurveSampled is SinglePassMissCurve restricted to every
// `every`-th set (a power of two dividing the set count); the curve is
// measured over accesses to sampled sets only. See StackProfiler for
// the error characteristics.
func SinglePassMissCurveSampled(cfg Config, st AddrStream, warmup, measure, every int) MissCurve {
	p := NewSampledStackProfiler(cfg, every)
	for i := 0; i < warmup; i++ {
		p.Record(st.Next())
	}
	p.StartMeasure()
	for i := 0; i < measure; i++ {
		p.Record(st.Next())
	}
	return p.Curve()
}
