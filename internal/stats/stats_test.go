package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("zero-value summary should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d, want 8", s.Count())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if !almostEq(s.StdDev(), 2, 1e-12) {
		t.Errorf("stddev = %v, want 2", s.StdDev())
	}
}

func TestSummarySingleSample(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Min() != 3.5 || s.Max() != 3.5 || s.Mean() != 3.5 {
		t.Errorf("single sample summary wrong: %v", s.String())
	}
	if s.Variance() != 0 {
		t.Errorf("variance of one sample = %v, want 0", s.Variance())
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var all, a, b Summary
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), all.Count())
	}
	if !almostEq(a.Mean(), all.Mean(), 1e-9) {
		t.Errorf("merged mean = %v, want %v", a.Mean(), all.Mean())
	}
	if !almostEq(a.Variance(), all.Variance(), 1e-6) {
		t.Errorf("merged variance = %v, want %v", a.Variance(), all.Variance())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Errorf("merged min/max = %v/%v, want %v/%v", a.Min(), a.Max(), all.Min(), all.Max())
	}
}

func TestSummaryMergeEmpty(t *testing.T) {
	var a, b Summary
	a.Add(1)
	a.Add(2)
	before := a
	a.Merge(b) // merging empty is a no-op
	if a != before {
		t.Error("merging empty summary changed the receiver")
	}
	b.Merge(a) // merging into empty copies
	if b.Count() != 2 || b.Mean() != 1.5 {
		t.Errorf("merge into empty: %v", b.String())
	}
	var c Summary
	c.Add(0)
	c.Merge(a) // a's max is the merged max
	if c.Max() != 2 || c.Min() != 0 {
		t.Errorf("merged min/max = %v/%v, want 0/2", c.Min(), c.Max())
	}
}

func TestSummaryMeanWithinBounds(t *testing.T) {
	// Property: mean always lies within [min, max], variance >= 0.
	f := func(xs []float64) bool {
		var s Summary
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// keep magnitudes sane to avoid float blowup obscuring the property
			if math.Abs(x) > 1e12 {
				continue
			}
			s.Add(x)
		}
		if s.Count() == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9 && s.Variance() >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoV(t *testing.T) {
	var s Summary
	for _, x := range []float64{10, 10, 10} {
		s.Add(x)
	}
	if s.CoV() != 0 {
		t.Errorf("CoV of constant stream = %v, want 0", s.CoV())
	}
	var z Summary
	z.Add(-1)
	z.Add(1)
	if z.CoV() != 0 {
		t.Errorf("CoV with zero mean = %v, want 0 (guarded)", z.CoV())
	}
}
