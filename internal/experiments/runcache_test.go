package experiments

import (
	"bytes"
	"testing"

	"cmpqos/internal/sim"
)

// goldenNames lists every registered experiment the cache byte-identity
// sweep covers; the two cache-microarchitecture ablations are excluded
// because they run no simulations (nothing to cache) and dominate
// wall-clock time.
func goldenNames(short bool) []string {
	if short {
		return []string{"fig5", "fig6", "fig7", "frag", "lac"}
	}
	var names []string
	for _, r := range Registry() {
		if r.Name == "ablation-partition" || r.Name == "ablation-sampling" {
			continue
		}
		names = append(names, r.Name)
	}
	return names
}

// renderWith runs one experiment under the given options and returns its
// rendered table.
func renderWith(t *testing.T, name string, o Options) string {
	t.Helper()
	r, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	var buf bytes.Buffer
	if err := r.Run(o, &buf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if buf.Len() == 0 {
		t.Fatalf("%s produced no output", name)
	}
	return buf.String()
}

// TestGoldenTablesCacheOnVsOff holds the run cache to its contract over
// the whole registry: every experiment table is byte-identical computed
// cold (a private empty cache, every simulation executed), under a
// parallel worker pool, and served entirely from a warm cache — with
// zero new simulations on the warm pass. (The engine's own caches are
// pinned per config shape in internal/sim: TestPlanCacheByteIdentity,
// TestEventSkipByteIdentity.)
func TestGoldenTablesCacheOnVsOff(t *testing.T) {
	const instr = 2_000_000
	warmW1 := sim.NewRunCache()
	warmW4 := sim.NewRunCache()
	for _, name := range goldenNames(testing.Short()) {
		t.Run(name, func(t *testing.T) {
			baseline := renderWith(t, name, Options{JobInstr: instr, Workers: 1, Cache: sim.NewRunCache()})
			cachedW1 := renderWith(t, name, Options{JobInstr: instr, Workers: 1, Cache: warmW1})
			if cachedW1 != baseline {
				t.Errorf("shared cache (workers=1) differs from a cold private cache:\n--- cold ---\n%s\n--- shared ---\n%s",
					baseline, cachedW1)
			}
			cachedW4 := renderWith(t, name, Options{JobInstr: instr, Workers: 4, Cache: warmW4})
			if cachedW4 != baseline {
				t.Errorf("shared cache (workers=4) differs from a cold private cache:\n--- cold ---\n%s\n--- shared ---\n%s",
					baseline, cachedW4)
			}
			// Every config is now memoized in warmW1: a re-render must hit
			// the cache for each and still produce the same bytes.
			before := warmW1.Computes()
			warm := renderWith(t, name, Options{JobInstr: instr, Workers: 1, Cache: warmW1})
			if warm != baseline {
				t.Errorf("warm-cache render differs from the cold one")
			}
			if got := warmW1.Computes(); got != before {
				t.Errorf("warm re-render computed %d new runs, want 0", got-before)
			}
		})
	}
}

// TestRunCacheDeduplicatesAcrossExperiments pins the cross-experiment
// payoff: Figure 6 studies the same policy×bzip2 configurations Figure 5
// already ran, so with a shared cache the whole second experiment is
// served from memoized reports — zero new simulations.
func TestRunCacheDeduplicatesAcrossExperiments(t *testing.T) {
	cache := sim.NewRunCache()
	o := Options{JobInstr: 2_000_000, Workers: 1, Cache: cache}
	if _, err := Fig5(o); err != nil {
		t.Fatal(err)
	}
	afterFig5 := cache.Computes()
	if afterFig5 == 0 {
		t.Fatal("Fig5 computed no runs through the cache")
	}
	if _, err := Fig6(o); err != nil {
		t.Fatal(err)
	}
	if got := cache.Computes(); got != afterFig5 {
		t.Errorf("Fig6 computed %d extra runs, want 0 (its grid repeats Fig5 configurations)",
			got-afterFig5)
	}
	// A repeated Fig5 is also fully served from cache.
	if _, err := Fig5(o); err != nil {
		t.Fatal(err)
	}
	if got := cache.Computes(); got != afterFig5 {
		t.Errorf("repeated Fig5 computed %d extra runs, want 0", got-afterFig5)
	}
}
