package sim

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// repeatAddLoop is the replay applySteady used to run and the oracle
// repeatAdd is held to: m rounds of the two stepped additions.
func repeatAddLoop(s, x0, x1 float64, m int64) float64 {
	for ; m > 0; m-- {
		s += x0
		s += x1
	}
	return s
}

func checkRepeatAdd(t *testing.T, s, x0, x1 float64, m int64) {
	t.Helper()
	got, want := repeatAdd(s, x0, x1, m), repeatAddLoop(s, x0, x1, m)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("repeatAdd(%x, %x, %x, %d) = %x (%016x), the loop leaves %x (%016x)",
			s, x0, x1, m, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestRepeatAddMatchesLoop holds the kernel to the loop on a seeded
// stream: accumulators with full-width mantissas in every binade from
// 2^8 to 2^58 (so ulps from 2^-44 to 64 meet the addends below), at the
// first multiples of the addend (a run's opening rounds, where ties
// live), at whole numbers and at zero; addends that are integers,
// half-integers, dyadic fractions, full-width floats, zero, under an
// ulp, larger than the accumulator and negative; one addend and two.
func TestRepeatAddMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	addend := func(s float64) float64 {
		switch rng.Intn(9) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(64))
		case 2:
			return float64(rng.Intn(64)) + 0.5
		case 3:
			return float64(rng.Intn(1<<12)) / float64(int64(1)<<uint(rng.Intn(12)))
		case 4: // under (or a few times) the accumulator's ulp
			return s * math.Ldexp(rng.Float64(), -51-rng.Intn(4))
		case 5: // larger than the accumulator
			return s*(1+3*rng.Float64()) + 1
		case 6: // an ordinary cycle count: instr × CPI
			return float64(1+rng.Intn(250_000)) * (0.5 + 3*rng.Float64())
		case 7: // nothing closed-form applies to a negative addend
			return -s * math.Ldexp(rng.Float64(), -rng.Intn(30))
		default:
			return math.Ldexp(1+rng.Float64(), rng.Intn(40)-20)
		}
	}
	const cases = 120_000
	for c := 0; c < cases; c++ {
		var s float64
		if c%16 != 0 {
			s = math.Ldexp(1+rng.Float64(), 8+rng.Intn(51))
		}
		x0 := addend(s)
		x1 := 0.0
		if c%2 == 1 {
			x1 = addend(s)
		}
		switch c % 16 {
		case 1:
			s = float64(rng.Intn(6)) * (x0 + x1)
		case 2: // whole numbers: integer addends land on binade ends exactly
			s = float64(rng.Int63n(1 << uint(10+rng.Intn(48))))
		}
		m := int64(rng.Intn(5001))
		if c%4 == 0 {
			m = int64(rng.Intn(40)) // around the cut-over
		}
		checkRepeatAdd(t, s, x0, x1, m)
	}
}

// TestRepeatAddLargeK runs windows no loop could replay (up to 2^41
// rounds): splitting a window anywhere must not change the result — the
// property chunked fast-forwarding rests on — and the last few thousand
// rounds, which a loop can run, must agree with it. The inputs are the
// ones whose ties last a handful of rounds (a tie binade is stepped):
// full-width floats, and small integers on sums that stay below 2^53.
func TestRepeatAddLargeK(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for c := 0; c < 2_000; c++ {
		var s, x0, x1 float64
		if c%3 == 0 {
			s, x0 = float64(rng.Int63n(1<<40)), float64(rng.Intn(1<<10))
			if c%2 == 1 {
				x1 = float64(rng.Intn(1 << 10))
			}
		} else {
			s, x0 = math.Ldexp(1+rng.Float64(), rng.Intn(70)), math.Ldexp(1+rng.Float64(), rng.Intn(30))
			if c%2 == 1 {
				x1 = math.Ldexp(1+rng.Float64(), rng.Intn(30))
			}
			if c%8 == 0 {
				s = 0
			}
		}
		m := int64(1)<<uint(20+rng.Intn(21)) + rng.Int63n(1<<20)
		a := rng.Int63n(m + 1)
		tail := int64(rng.Intn(4_000))
		whole := repeatAdd(s, x0, x1, m)
		if split := repeatAdd(repeatAdd(s, x0, x1, a), x0, x1, m-a); math.Float64bits(split) != math.Float64bits(whole) {
			t.Fatalf("repeatAdd(%x, %x, %x, %d) = %x, split at %d it gives %x", s, x0, x1, m, whole, a, split)
		}
		if stepped := repeatAddLoop(repeatAdd(s, x0, x1, m-tail), x0, x1, tail); math.Float64bits(stepped) != math.Float64bits(whole) {
			t.Fatalf("repeatAdd(%x, %x, %x, %d) = %x, stepping its last %d rounds gives %x", s, x0, x1, m, whole, tail, stepped)
		}
	}
}

// FuzzRepeatAdd feeds the kernel arbitrary bit patterns — negative,
// subnormal, infinite and NaN accumulators and addends included — and
// requires the loop's bits.
func FuzzRepeatAdd(f *testing.F) {
	bits := math.Float64bits
	f.Add(bits(0), bits(731_250.75), bits(0), uint16(4096))
	f.Add(bits(1e9), bits(731_250.75), bits(698_113.2), uint16(2048))
	f.Add(bits(1<<52), bits(1.5), bits(0), uint16(100))                           // every addition a tie
	f.Add(bits(1<<53-40), bits(3), bits(2.5), uint16(64))                         // straddles a binade
	f.Add(bits(1e300), bits(1), bits(2), uint16(9))                               // absorbed
	f.Add(bits(3), bits(1e17), bits(0), uint16(30))                               // addend above the accumulator
	f.Add(bits(math.Inf(1)), bits(1), bits(math.NaN()), uint16(9))                // nothing closed-form
	f.Add(bits(-5), bits(1), bits(0), uint16(40))                                 // climbs through zero
	f.Add(bits(1e9), bits(7.3), bits(-2.1), uint16(300))                          // a negative addend
	f.Add(bits(0x1.0000000000001p-1000), bits(0x1.8p-1052), bits(0), uint16(900)) // a tie whose half-ulp has no normal form
	f.Add(bits(math.Copysign(0, -1)), bits(0), bits(0), uint16(3))                // −0 + 0 = +0
	f.Add(bits(math.Copysign(0, -1)), bits(0), bits(0), uint16(0))                // but not in zero rounds
	f.Add(bits(1<<40), bits(1<<40+0x1p-13), bits(0), uint16(20))                  // s == lo, addend just above it
	f.Add(bits(1<<40), bits(1<<39), bits(1<<39), uint16(20))                      // one round lands on top exactly
	f.Add(bits(math.MaxFloat64/2), bits(1e306), bits(0), uint16(500))             // overflows
	f.Fuzz(func(t *testing.T, s, x0, x1 uint64, m uint16) {
		checkRepeatAdd(t, math.Float64frombits(s), math.Float64frombits(x0), math.Float64frombits(x1), int64(m))
	})
}

// BenchmarkRepeatAdd prices the kernel against the loop it replaced, at
// the window lengths a fleet run produces, for a period-1 window (one
// addend) and a period-2 window (two): the evidence for repeatAddMin.
// Each op restarts from the same mid-run accumulator.
func BenchmarkRepeatAdd(b *testing.B) {
	impls := []struct {
		name string
		f    func(s, x0, x1 float64, m int64) float64
	}{{"kernel", repeatAdd}, {"loop", repeatAddLoop}}
	for _, addends := range []int{1, 2} {
		x0, x1 := 731_250.75*1.0000001, 0.0
		if addends == 2 {
			x1 = 698_113.2 * 1.0000001
		}
		for _, k := range []int64{4, 8, 12, 16, 64, 4096, 1 << 20} {
			for _, impl := range impls {
				b.Run(impl.name+"/addends="+strconv.Itoa(addends)+"/k="+strconv.FormatInt(k, 10), func(b *testing.B) {
					var sink float64
					for i := 0; i < b.N; i++ {
						sink += impl.f(3.1e9, x0, x1, k)
					}
					benchSink = sink
				})
			}
		}
	}
}

var benchSink float64
