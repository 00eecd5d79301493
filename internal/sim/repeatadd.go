package sim

import "math"

// repeatAddMin is the window length (in rounds) below which repeatAdd
// just performs the additions: the closed form costs one division and a
// dozen flops whatever m is, the loop two dependent additions a round.
// BenchmarkRepeatAdd puts the crossing between 8 and 16 rounds.
const repeatAddMin = 12

// repeatAdd returns, bit for bit, the value m rounds of
//
//	s += x0
//	s += x1
//
// leave in s, in O(binades of s crossed) instead of O(m). x1 = 0 is the
// one-addend case: adding +0 changes only −0, which no accumulator
// here holds.
//
// Inside one binade of the accumulator, adding a constant is integer
// arithmetic in units of the accumulator's ulp. Let s be positive and
// normal with exponent e, lo = 2^e ≤ s < top = 2^(e+1), and u = ulp(s) =
// 2^(e−52): the floats in [lo, top] are exactly the multiples of u. For
// an addend 0 ≤ x ≤ lo, i = (lo + x) − lo is x rounded to a multiple of
// u (the subtraction is exact) and r = x − i is exact (Sterbenz), with
// |r| ≤ u/2. Unless |r| == u/2 — a tie, whose rounding follows the
// parity of s/u — every s' in [lo, top) with s' + i ≤ top has
// fl(s' + x) = s' + i: the exact sum lies strictly within u/2 of that
// multiple of u, and spacing only widens above top. So n rounds that
// end at or below top add n·(i0 + i1), product and sum exact (multiples
// of u no larger than 2^53·u, so a port that fuses the multiply-add
// computes the same bits), and the largest such n is
// ⌊(top − s)/(i0 + i1)⌋: top − s is exact, and a quotient of integers
// (in units of u) below 2^53 whose next integer times the divisor is
// below 2^53 too cannot round up to that integer. An addend above lo
// needs no test of its own: its i is at least lo, which fits the room
// only at s == lo, where lo + x is the very sum i was read from. The
// round that straddles top is stepped, and so is any round in which a
// precondition fails (s zero, subnormal, negative, NaN or Inf; an
// addend negative or NaN; a tie), so the worst case is the plain loop
// and no input is unsupported.
func repeatAdd(s, x0, x1 float64, m int64) float64 {
	if m > 1 && x0 == 0 && x1 == 0 {
		m = 1 // idle pools: the first round already is the fixed point
	}
	for m > 0 {
		// A negative s carries its sign bit into e and fails the range
		// test along with zero and subnormals (0) and NaN and Inf (0x7ff);
		// e > 53 keeps u/2 normal, e < 0x7fe keeps top finite.
		e := math.Float64bits(s) >> 52
		if m >= repeatAddMin && e > 53 && e < 0x7fe && x0 >= 0 && x1 >= 0 {
			lo := math.Float64frombits(e << 52)
			top := math.Float64frombits((e + 1) << 52)
			half := math.Float64frombits((e - 53) << 52) // u/2
			i0, i1 := (lo+x0)-lo, (lo+x1)-lo
			r0, r1 := x0-i0, x1-i1
			if r0 != half && r0 != -half && r1 != half && r1 != -half {
				i := i0 + i1
				if i == 0 {
					return s // both addends are under half an ulp: absorbed for good
				}
				if room := top - s; room >= i {
					n := min(int64(room/i), m)
					s += float64(n) * i
					m -= n
					continue
				}
			}
		}
		s += x0
		s += x1
		m--
	}
	return s
}
