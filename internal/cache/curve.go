package cache

// AddrStream produces a synthetic address stream, one block-granular
// access at a time. Implementations live in internal/workload; the cache
// package only consumes them.
type AddrStream interface {
	Next() Addr
}

// MissCurve holds a measured miss-ratio-vs-ways curve: Ratio[w] is the
// steady-state miss ratio when the stream runs with w ways of the cache,
// for w in 1..Ways. Ratio[0] is defined as 1 (no cache).
type MissCurve struct {
	Ratio []float64
}

// At returns the miss ratio at a way allocation, clamping out-of-range
// requests to the measured ends.
func (m MissCurve) At(ways int) float64 {
	if len(m.Ratio) == 0 {
		return 1
	}
	if ways < 0 {
		ways = 0
	}
	if ways >= len(m.Ratio) {
		ways = len(m.Ratio) - 1
	}
	return m.Ratio[ways]
}

// Monotonic clamps the curve in place so that Ratio[w+1] <= Ratio[w]
// and returns it. More cache can never hurt a true-LRU probe (the stack
// property), but measured curves from noisy or non-LRU sources can
// wiggle upward by a hair, and a non-monotone curve confuses consumers
// that assume diminishing returns (the Figure 4 sensitivity
// classification, the knee detection behind usefulWays in the sim
// engine, the UCP lookahead allocator). Every measurement path in this
// package applies it; for the single-owner LRU probes it is a no-op.
func (m MissCurve) Monotonic() MissCurve {
	for w := 1; w < len(m.Ratio); w++ {
		if m.Ratio[w] > m.Ratio[w-1] {
			m.Ratio[w] = m.Ratio[w-1]
		}
	}
	return m
}
