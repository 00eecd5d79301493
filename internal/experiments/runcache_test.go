package experiments

import (
	"testing"

	"cmpqos/internal/sim"
)

// TestRunCacheDeduplicatesAcrossExperiments pins the cross-experiment
// payoff: Figure 6 studies the same policy×bzip2 configurations Figure 5
// already ran, so with a shared cache the whole second experiment is
// served from memoized reports — no new entry in the cache.
func TestRunCacheDeduplicatesAcrossExperiments(t *testing.T) {
	cache := sim.NewRunCache()
	o := Options{Workers: 1, Cache: cache}
	if _, err := Fig5(o); err != nil {
		t.Fatal(err)
	}
	afterFig5 := cache.Len()
	if afterFig5 == 0 {
		t.Fatal("Fig5 computed no runs through the cache")
	}
	if _, err := Fig6(o); err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got != afterFig5 {
		t.Errorf("Fig6 computed %d extra runs, want 0 (its grid repeats Fig5 configurations)",
			got-afterFig5)
	}
	// A repeated Fig5 is also fully served from cache.
	if _, err := Fig5(o); err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got != afterFig5 {
		t.Errorf("repeated Fig5 computed %d extra runs, want 0", got-afterFig5)
	}
}
