package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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

// runEntry is one cache slot; the Once gives singleflight semantics.
type runEntry struct {
	once sync.Once
	rep  *Report
	err  error
}

// RunCache memoizes whole simulation runs with singleflight
// deduplication, mirroring workload.CurveStore one level up: an
// experiment grid (or several experiments in one process) often repeats
// the exact same configuration — the same baseline policy across
// figures, the same seed across sweeps — and a simulation is a pure
// function of its Config, so the second and later requests can reuse the
// first report. Concurrent requests for the same key block on one run
// instead of racing to repeat it, which keeps parallel sweeps
// byte-identical to serial ones.
//
// Cached reports are shared across callers and must be treated as
// read-only; every consumer in this repo only reads and renders them.
// Errors are memoized too — a configuration that failed once fails
// identically every time.
type RunCache struct {
	mu       sync.Mutex
	m        map[string]*runEntry
	computes atomic.Int64
}

// NewRunCache builds an empty cache.
func NewRunCache() *RunCache {
	return &RunCache{m: map[string]*runEntry{}}
}

// DefaultRunCache is the process-wide cache used by RunAll. Like
// workload.DefaultCurves it trades a modest footprint (reports are a few
// kilobytes) for cross-experiment reuse in CLI and test processes.
var DefaultRunCache = NewRunCache()

// Run returns the memoized report for the configuration, executing the
// simulation at most once per key across all goroutines; callers with
// the same key block until the first run finishes. A nil receiver
// disables memoization and always runs fresh.
func (c *RunCache) Run(cfg Config) (*Report, error) {
	return c.RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation. A run interrupted by ctx is NOT
// memoized — the entry is dropped so a later caller with a live context
// re-executes instead of inheriting a cancellation that was never a
// property of the configuration. Genuine simulation errors stay
// memoized as before.
func (c *RunCache) RunContext(ctx context.Context, cfg Config) (*Report, error) {
	if c == nil {
		return c.compute(ctx, cfg)
	}
	key := cfg.CacheKey()
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &runEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.rep, e.err = c.compute(ctx, cfg)
	})
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		c.mu.Lock()
		if c.m[key] == e {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	return e.rep, e.err
}

// compute executes one simulation (counted when the cache is live).
func (c *RunCache) compute(ctx context.Context, cfg Config) (*Report, error) {
	if c != nil {
		c.computes.Add(1)
	}
	r, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return r.RunContext(ctx)
}

// Computes returns how many simulations have actually executed (cache
// misses) since the cache was created or Reset.
func (c *RunCache) Computes() int64 { return c.computes.Load() }

// Len returns the number of memoized runs.
func (c *RunCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Reset drops every memoized run and zeroes the compute counter.
func (c *RunCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = map[string]*runEntry{}
	c.computes.Store(0)
}
