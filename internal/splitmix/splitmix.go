// Package splitmix is SplitMix64 (Steele, Lea and Flood, OOPSLA 2014):
// the stateless finalizer Mix, a cheap well-mixed hash, and Rand, the
// generator that steps a 64-bit state by the golden gamma and mixes it.
// It is tiny, seedable and independent of math/rand, so every stream
// drawn from it — fault plans, node seeds, locality homes, treap
// priorities, retry jitter — is the same on every platform and Go
// release.
package splitmix

// gamma is the golden-ratio increment 2^64/φ.
const gamma = 0x9e3779b97f4a7c15

// Mix is the SplitMix64 output for state x: x advanced by one gamma and
// finalized.
func Mix(x uint64) uint64 {
	x += gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a SplitMix64 generator. Its zero value is the stream seeded
// with 0.
type Rand struct{ state uint64 }

// New returns the generator seeded with seed.
func New(seed uint64) Rand { return Rand{state: seed} }

// Uint64 returns the next draw.
func (r *Rand) Uint64() uint64 {
	z := Mix(r.state)
	r.state += gamma
	return z
}

// Float64 returns a uniform draw in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a draw in [0, n), by modulo reduction.
func (r *Rand) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}
