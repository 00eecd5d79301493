// Package parallel provides the bounded, order-preserving worker pool
// behind every multi-run experiment: independent simulation
// configurations fan out across CPU cores while results come back in
// submission order, so parallel sweeps render byte-identical tables to
// serial ones.
//
// Concurrency contract: the pool parallelizes *across* jobs only. Each
// job callback must own all of its mutable state (a sim.Runner does);
// nothing in this package synchronizes access to state shared between
// jobs. Single-run internals — stats trackers, cache models, the
// simulator — remain strictly single-goroutine.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool. The zero value is not useful; build one
// with New. A Pool is stateless between calls and may be reused or shared
// freely (Map itself spawns and joins its own goroutines per call).
type Pool struct {
	workers int
}

// DefaultWorkers is the pool size used when the requested count is not
// positive: one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// New returns a pool bounded to n concurrent workers, in the convention
// of experiments.Options.Workers: 0 or 1 yields strictly serial
// execution, and a negative n selects DefaultWorkers.
func New(n int) *Pool {
	switch {
	case n < 0:
		n = DefaultWorkers()
	case n == 0:
		n = 1
	}
	return &Pool{workers: n}
}

// Map runs fn(0), fn(1), …, fn(n-1) on at most p.workers goroutines
// and returns the n results in index order, regardless of completion
// order. Error semantics mirror a serial loop as closely as concurrency
// allows: if any job fails, Map returns the error of the lowest-index
// failing job and jobs not yet started are skipped. A panic inside fn is
// captured and reported as that job's error rather than tearing down the
// process. Cancelling ctx stops new jobs from being claimed; jobs
// already running finish (fn should watch ctx itself for long runs), and
// Map reports ctx.Err() if the sweep was cut short without another
// error. A nil ctx means no cancellation.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		// Serial fast path: no goroutines, exactly the historical loop.
		// It allocates nothing beyond out: the state the workers share
		// lives in mapConcurrent, so entering Map moves nothing to the
		// heap.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := runJob(i, fn)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	return mapConcurrent(ctx, workers, out, fn)
}

// mapConcurrent is Map's worker path: it fills out on workers
// goroutines and returns once every one has exited.
func mapConcurrent[T any](ctx context.Context, workers int, out []T, fn func(i int) (T, error)) ([]T, error) {
	n := len(out)
	var (
		next     atomic.Int64
		done     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				v, err := runJob(i, fn)
				if err != nil {
					record(i, err)
					return
				}
				out[i] = v
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil && int(done.Load()) < n {
		return nil, err
	}
	return out, nil
}

// runJob invokes one callback with panic capture.
func runJob[T any](i int, fn func(int) (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("parallel: job %d panicked: %v\n%s", i, p, debug.Stack())
		}
	}()
	return fn(i)
}
