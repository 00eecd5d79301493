package sim

import "cmpqos/internal/workload"

// minIndex returns the index of the smallest element (first on ties).
func minIndex(xs []int) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// usefulWays is the smallest allocation beyond which the profile's miss
// curve is nearly flat.
func usefulWays(p workload.Profile) float64 {
	eps := p.MissRatio(1) * 0.01
	for w := 1; w < 16; w++ {
		if p.MissRatio(w)-p.MissRatio(w+1) < eps {
			return float64(w)
		}
	}
	return 16
}
