package workload

import "fmt"

// ModeHint is a job's *preferred* execution mode inside a workload
// composition. Which hints are honored is decided by the evaluation
// configuration (Table 2): All-Strict ignores all hints, Hybrid-1 honors
// only Opportunistic hints, Hybrid-2 honors Elastic and Opportunistic
// hints, and EqualPart has no modes at all.
type ModeHint int

const (
	// HintStrict prefers the Strict execution mode.
	HintStrict ModeHint = iota
	// HintElastic prefers Elastic(X).
	HintElastic
	// HintOpportunistic prefers Opportunistic.
	HintOpportunistic
)

// String names the hint.
func (h ModeHint) String() string {
	switch h {
	case HintStrict:
		return "strict"
	case HintElastic:
		return "elastic"
	case HintOpportunistic:
		return "opportunistic"
	}
	return fmt.Sprintf("ModeHint(%d)", int(h))
}

// JobTemplate is one entry of a workload composition.
type JobTemplate struct {
	Benchmark string
	Hint      ModeHint
	// Phases optionally overrides the benchmark's phase schedule for
	// this slot (see Profile.WithPhases).
	Phases []Phase
}

// Composition is a 10-job workload in submission order (paper §6).
type Composition struct {
	Name string
	Jobs []JobTemplate
}

// singlePattern is the deterministic mode-hint pattern used for
// single-benchmark workloads: 30% Elastic hints at indices {1,4,7} and
// 30% Opportunistic hints at {2,5,8}, matching Table 2's Hybrid-2
// 40/30/30 split — and leaving the tenth accepted job Strict, which the
// paper calls out when explaining why Hybrid-1 and Hybrid-2 finish at
// nearly the same time (§7.1).
func singlePattern(i int) ModeHint {
	switch i % 10 {
	case 1, 4, 7:
		return HintElastic
	case 2, 5, 8:
		return HintOpportunistic
	default:
		return HintStrict
	}
}

// Single builds the paper's single-benchmark 10-job workload for a
// benchmark name.
func Single(benchmark string) Composition {
	MustByName(benchmark) // validate early
	c := Composition{Name: benchmark}
	for i := 0; i < 10; i++ {
		c.Jobs = append(c.Jobs, JobTemplate{Benchmark: benchmark, Hint: singlePattern(i)})
	}
	return c
}

// Mix1 builds Table 3's Mix-1: hmmer Strict, gobmk Elastic(5%), bzip2
// Opportunistic — the workload favourable to resource stealing (the
// cache-insensitive benchmark donates, the cache-sensitive one receives).
func Mix1() Composition {
	return mix("Mix-1", []JobTemplate{
		{Benchmark: "hmmer", Hint: HintStrict},
		{Benchmark: "gobmk", Hint: HintElastic},
		{Benchmark: "bzip2", Hint: HintOpportunistic},
	})
}

// Mix2 builds Table 3's Mix-2: hmmer Strict, bzip2 Elastic(5%), gobmk
// Opportunistic — the unfavourable composition (the sensitive benchmark
// donates).
func Mix2() Composition {
	return mix("Mix-2", []JobTemplate{
		{Benchmark: "hmmer", Hint: HintStrict},
		{Benchmark: "bzip2", Hint: HintElastic},
		{Benchmark: "gobmk", Hint: HintOpportunistic},
	})
}

// mix repeats a pattern to fill ten jobs.
func mix(name string, pattern []JobTemplate) Composition {
	c := Composition{Name: name}
	for i := 0; i < 10; i++ {
		c.Jobs = append(c.Jobs, pattern[i%len(pattern)])
	}
	return c
}
