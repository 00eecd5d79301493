package sim

import (
	"context"
	"fmt"

	"cmpqos/internal/parallel"
)

// CacheKey canonically serializes the configuration for run memoization.
// Config is a plain value: every field is a scalar, string, struct, or
// slice thereof — no pointers, maps, or functions, which
// TestConfigIsPlainValue checks field by field — so the %#v rendering
// is deterministic, and Go's shortest-round-trip float formatting makes
// distinct float64 values render distinctly. Two configs with equal keys
// therefore describe bit-identical simulations.
func (c Config) CacheKey() string {
	return fmt.Sprintf("%#v", c)
}

// RunCache memoizes whole simulation runs (DESIGN §7.4): an experiment
// grid, or several experiments over one grid, often repeats the exact
// same configuration, and a simulation is a pure function of its Config,
// so later requests reuse the first report. Concurrent requests for one
// configuration wait for a single run, which keeps parallel sweeps
// byte-identical to serial ones. A sweep that wants the reuse builds one
// cache and passes it to every run; nothing is shared otherwise.
//
// Cached reports are shared across callers and must be treated as
// read-only; every consumer in this repo only reads and renders them.
// A run that fails, cancelled ones included, is not memoized.
type RunCache struct {
	memo parallel.Memo[string, *Report]
}

// NewRunCache builds an empty cache.
func NewRunCache() *RunCache { return &RunCache{} }

// Run returns the report of cfg, simulating it at most once per key
// while runs succeed. A nil receiver memoizes nothing and always runs.
func (c *RunCache) Run(ctx context.Context, cfg Config) (*Report, error) {
	if c == nil {
		return run(ctx, cfg)
	}
	return c.memo.Get(cfg.CacheKey(), func() (*Report, error) { return run(ctx, cfg) })
}

// Len returns the number of memoized runs.
func (c *RunCache) Len() int { return c.memo.Len() }

// run executes one simulation.
func run(ctx context.Context, cfg Config) (*Report, error) {
	r, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return r.RunContext(ctx)
}

// RunAll executes every configuration and returns the reports in the
// same order, fanning out across at most workers goroutines (0 or 1
// runs serially in the calling goroutine, a negative count one worker
// per CPU: parallel.New's convention). Each run builds its own Runner,
// which owns all of its mutable state; the ordered collection makes a
// parallel sweep indistinguishable from a serial one to the caller. Each configuration resolves through
// cache, so one repeated within the grid, or already run by an earlier
// grid sharing the cache, reuses the memoized report; a nil cache runs
// every configuration. On failure RunAll returns the error of the
// lowest-index failing configuration, matching what a serial loop would
// have reported first. Cancelling ctx stops claiming new configurations
// and interrupts in-flight simulations at their next cancellation check.
func RunAll(ctx context.Context, workers int, cache *RunCache, cfgs []Config) ([]*Report, error) {
	return parallel.Map(ctx, parallel.New(workers), len(cfgs), func(i int) (*Report, error) {
		return cache.Run(ctx, cfgs[i])
	})
}
