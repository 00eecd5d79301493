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
// curve is nearly flat (16 if it never flattens; no built-in profile is
// that steep).
func usefulWays(p workload.Profile) float64 {
	eps := p.MissRatio(1) * 0.01
	w := 1
	for w < 16 && p.MissRatio(w)-p.MissRatio(w+1) >= eps {
		w++
	}
	return float64(w)
}
