// Package stats provides the one statistical primitive the simulator
// and the experiments share: Summary, a running summary of a sample
// stream that allocates nothing.
//
// Concurrency contract: a Summary is not internally synchronized.
// Every one belongs to exactly one simulation run (one sim.Runner),
// and a run executes on a single goroutine. Cross-run parallelism lives
// one layer up — internal/parallel fans complete, independent runs
// across workers — so no stats value is ever shared between goroutines.
// Aggregating results from several runs (e.g. folding per-seed Summary
// values) must happen after the runs complete, on the caller's
// goroutine, in a deterministic order.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates a running summary of a stream of float64 samples:
// count, mean, min, max, and variance (via Welford's online
// algorithm). The zero value is ready to use.
type Summary struct {
	n    int64
	min  float64
	max  float64
	mean float64
	m2   float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min = x
		s.max = x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Merge folds another summary into s.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	mean := s.mean + delta*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = n
	s.mean = mean
	s.m2 = m2
}

// Count returns the number of samples recorded.
func (s *Summary) Count() int64 { return s.n }

// Mean returns the arithmetic mean, or 0 if no samples were recorded.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Min returns the smallest sample, or 0 if none were recorded.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample, or 0 if none were recorded.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Variance returns the population variance of the samples.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CoV returns the coefficient of variation (stddev/mean), or 0 when the
// mean is zero. It is the run-to-run variability metric used by the
// partitioning ablation (paper §4.1).
func (s *Summary) CoV() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.StdDev() / m
}

// String renders the summary in a compact human-readable form.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g max=%.4g sd=%.4g",
		s.n, s.Mean(), s.Min(), s.Max(), s.StdDev())
}
