// Package alloc implements the shared-cache *allocation policies* the
// paper positions itself against in §2: equal partitioning (the
// VPC-like EqualPart baseline), utility-based partitioning after Qureshi
// & Patt (maximize total hits via marginal utility with lookahead), and
// fair partitioning after Kim, Chandra & Solihin (equalize per-job
// slowdown relative to running alone). None of these provide QoS
// *guarantees* — they optimize an aggregate — which is exactly the
// paper's argument; the experiment in internal/experiments contrasts
// them with the reservation-based framework.
//
// All policies work from miss-ratio-vs-ways curves (misses per access as
// a function of allocated ways), the same calibrated curves the rest of
// the repository uses.
package alloc

import (
	"fmt"

	"cmpqos/internal/workload"
)

// Demand describes one competing job: its profile (for curves and the
// CPI model) and its L2 access weight (accesses per instruction × IPC
// gives accesses per cycle; for partitioning purposes the relative
// access rate is what matters).
type Demand struct {
	Profile workload.Profile
}

// Allocation is the resulting ways per job; entries sum to at most the
// total ways and each is at least MinWays.
type Allocation []int

// MinWays is the smallest allocation any policy hands out: every job
// keeps at least one way.
const MinWays = 1

// validate panics on malformed inputs — these are programming errors.
func validate(demands []Demand, totalWays int) {
	if len(demands) == 0 {
		panic("alloc: no demands")
	}
	if totalWays < len(demands)*MinWays {
		panic(fmt.Sprintf("alloc: %d ways cannot cover %d jobs", totalWays, len(demands)))
	}
}

// Equal divides the ways evenly (the EqualPart / Virtual-Private-Cache
// shape); remainders go to the earliest jobs.
func Equal(demands []Demand, totalWays int) Allocation {
	validate(demands, totalWays)
	n := len(demands)
	out := make(Allocation, n)
	base := totalWays / n
	rem := totalWays % n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// missesAt returns job i's miss rate per instruction at an allocation,
// the quantity UCP's utility is measured in (weighted by access rate).
func missesAt(d Demand, ways int) float64 {
	return d.Profile.MPI(ways)
}

// UCP is utility-based cache partitioning (Qureshi & Patt, MICRO 2006,
// cited by the paper as a throughput optimizer): starting from MinWays
// each, repeatedly assign the next way to the job with the greatest
// marginal utility — the largest reduction in misses per additional way
// — using lookahead so that a job whose curve has a knee several ways
// out still wins against locally-flat competitors.
func UCP(demands []Demand, totalWays int) Allocation {
	validate(demands, totalWays)
	n := len(demands)
	out := make(Allocation, n)
	for i := range out {
		out[i] = MinWays
	}
	remaining := totalWays - n*MinWays
	for remaining > 0 {
		best, bestUtil, bestSpan := -1, 0.0, 1
		for i, d := range demands {
			// Lookahead: the best utility-per-way over any span that
			// still fits in the remaining budget.
			for span := 1; span <= remaining; span++ {
				gain := float64(missesAt(d, out[i])) - float64(missesAt(d, out[i]+span))
				util := gain / float64(span)
				if util > bestUtil {
					best, bestUtil, bestSpan = i, util, span
				}
			}
		}
		if best < 0 {
			// No job benefits from more cache; stop (leave ways idle,
			// as real UCP does with its unassigned partition).
			break
		}
		out[best] += bestSpan
		remaining -= bestSpan
	}
	return out
}

// slowdown returns job i's slowdown at an allocation relative to owning
// all the ways (the "alone" reference of the fairness literature).
func slowdown(d Demand, ways, totalWays int) float64 {
	alone := d.Profile.CPI(totalWays)
	now := d.Profile.CPI(ways)
	return now / alone
}

// Fair is fairness-oriented partitioning (after Kim, Chandra & Solihin,
// PACT 2004, cited by the paper as optimizing uniform slowdown): greedily
// hand each next way to the job currently suffering the worst slowdown
// versus running alone, which drives the allocation toward equalized
// slowdowns.
func Fair(demands []Demand, totalWays int) Allocation {
	validate(demands, totalWays)
	n := len(demands)
	out := make(Allocation, n)
	for i := range out {
		out[i] = MinWays
	}
	for used := n * MinWays; used < totalWays; used++ {
		worst, worstSlow := -1, -1.0
		for i, d := range demands {
			s := slowdown(d, out[i], totalWays)
			if s > worstSlow {
				worst, worstSlow = i, s
			}
		}
		out[worst]++
	}
	return out
}

// Metrics summarizes an allocation's quality under the CPI model, the
// quantities the §2 comparison experiment reports.
type Metrics struct {
	Ways          Allocation
	TotalMPI      float64   // summed misses per instruction (UCP's objective)
	WeightedSpeed float64   // mean of per-job IPC relative to alone
	Slowdowns     []float64 // per-job CPI ratio vs alone
	MaxSlowdown   float64
	MinSlowdown   float64
}

// Evaluate computes the metrics of an allocation.
func Evaluate(demands []Demand, ways Allocation, totalWays int) Metrics {
	m := Metrics{Ways: ways, MinSlowdown: 1e18}
	for i, d := range demands {
		m.TotalMPI += float64(d.Profile.MPI(ways[i]))
		s := slowdown(d, ways[i], totalWays)
		m.Slowdowns = append(m.Slowdowns, s)
		m.WeightedSpeed += 1 / s
		if s > m.MaxSlowdown {
			m.MaxSlowdown = s
		}
		if s < m.MinSlowdown {
			m.MinSlowdown = s
		}
	}
	m.WeightedSpeed /= float64(len(demands))
	return m
}

// Unfairness is the max/min slowdown ratio (1.0 = perfectly fair).
func (m Metrics) Unfairness() float64 {
	if m.MinSlowdown == 0 {
		return 0
	}
	return m.MaxSlowdown / m.MinSlowdown
}
