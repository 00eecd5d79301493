package cache

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
// The equivalence holds for the single-owner LRU probe the profiler
// models. Non-LRU victim policies (multi-owner partition contention,
// the Global scheme) have no stack property and no single-pass curve.
type StackProfiler struct {
	ways     int
	setShift uint
	tagShift uint
	setMask  uint64
	stacks   []uint64 // per set: ways tags in recency order (0 = MRU)
	depth    []int16  // valid stack entries per set
	hist     []int64  // hist[d]: measured accesses found at stack depth d
	total    int64    // measured accesses
	counting bool
}

// NewStackProfiler builds a profiler covering every set of cfg.
func NewStackProfiler(cfg Config) *StackProfiler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	return &StackProfiler{
		ways:     cfg.Ways,
		setShift: uint(trailingZeros(cfg.BlockSize)),
		tagShift: uint(trailingZeros(cfg.BlockSize)) + uint(trailingZeros(sets)),
		setMask:  uint64(sets - 1),
		stacks:   make([]uint64, sets*cfg.Ways),
		depth:    make([]int16, sets),
		hist:     make([]int64, cfg.Ways),
	}
}

// Record feeds one access into the profiler.
func (p *StackProfiler) Record(addr Addr) {
	set := int((uint64(addr) >> p.setShift) & p.setMask)
	tag := uint64(addr) >> p.tagShift
	base := set * p.ways
	stack := p.stacks[base : base+p.ways]
	n := int(p.depth[set])
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
		p.depth[set] = int16(n + 1)
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
	curve := MissCurve{Ratio: make([]float64, p.ways+1)}
	curve.Ratio[0] = 1
	if p.total == 0 {
		// Matches Partitioned.MissRatio's 0-accesses convention.
		return curve
	}
	hits := int64(0)
	for w := 1; w <= p.ways; w++ {
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
	p := NewStackProfiler(cfg)
	for i := 0; i < warmup; i++ {
		p.Record(st.Next())
	}
	p.StartMeasure()
	for i := 0; i < measure; i++ {
		p.Record(st.Next())
	}
	return p.Curve()
}
