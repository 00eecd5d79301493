package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewNormalizesWorkerCount(t *testing.T) {
	if got := New(0).workers; got != 1 {
		t.Fatalf("New(0).workers = %d, want 1 (serial)", got)
	}
	if got := New(-3).workers; got != DefaultWorkers() {
		t.Fatalf("New(-3).workers = %d, want %d", got, DefaultWorkers())
	}
	if got := New(5).workers; got != 5 {
		t.Fatalf("New(5).workers = %d, want 5", got)
	}
	if DefaultWorkers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers() = %d, want GOMAXPROCS %d", DefaultWorkers(), runtime.GOMAXPROCS(0))
	}
}

// TestMapOrdersResults checks that results arrive in submission order no
// matter which worker finishes first.
func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		const n = 100
		out, err := Map(context.Background(), New(workers), n, func(i int) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // scramble completion order
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapNilContext: a nil context never cancels.
func TestMapNilContext(t *testing.T) {
	//lint:ignore SA1012 a nil ctx is Map's documented "no cancellation"
	out, err := Map(nil, New(2), 3, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 3 || out[2] != 2 {
		t.Fatalf("Map(nil ctx) = (%v, %v), want ([0 1 2], nil)", out, err)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), New(4), 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Map over zero jobs = (%v, %v), want (nil, nil)", out, err)
	}
}

// TestMapFirstErrorWins checks the serial-equivalent error contract: the
// lowest-index failure is the one reported.
func TestMapFirstErrorWins(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), New(workers), 50, func(i int) (int, error) {
			if i == 3 || i == 30 {
				return 0, fmt.Errorf("job %d: %w", i, sentinel)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want wrapped sentinel", workers, err)
		}
		if !strings.Contains(err.Error(), "job 3") {
			t.Fatalf("workers=%d: err = %v, want the lowest-index failure (job 3)", workers, err)
		}
	}
}

// TestMapErrorSkipsRemaining checks that a failure stops the pool from
// starting the long tail of queued jobs.
func TestMapErrorSkipsRemaining(t *testing.T) {
	var started atomic.Int64
	const n = 10_000
	_, err := Map(context.Background(), New(2), n, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if s := started.Load(); s >= n {
		t.Fatalf("all %d jobs ran despite an early failure", s)
	}
}

func TestMapCapturesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), New(workers), 8, func(i int) (int, error) {
			if i == 5 {
				panic("kaboom")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic was not captured", workers)
		}
		if !strings.Contains(err.Error(), "job 5 panicked: kaboom") {
			t.Fatalf("workers=%d: err = %v, want panic report for job 5", workers, err)
		}
	}
}

// TestMapBoundsConcurrency checks the pool never runs more than its
// worker bound simultaneously.
func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), New(workers), 200, func(i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, bound is %d", p, workers)
	}
}

// TestMapOverlapsWallClock checks that a full pool genuinely runs jobs
// concurrently: eight jobs that each sleep 20ms must complete together
// in far less than the 160ms a serial loop would take. Sleeps overlap
// even on a single CPU, so this holds on any host; the generous bound
// absorbs scheduler noise.
func TestMapOverlapsWallClock(t *testing.T) {
	const n = 8
	const nap = 20 * time.Millisecond
	start := time.Now()
	_, err := Map(context.Background(), New(n), n, func(i int) (int, error) {
		time.Sleep(nap)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Duration(n)*nap/2 {
		t.Fatalf("8 overlapping 20ms jobs took %v; the pool is not running them concurrently", elapsed)
	}
}

// TestMapDeterministicAcrossWorkerCounts checks the headline guarantee:
// the same inputs produce identical outputs at any pool size.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	job := func(i int) (string, error) {
		return fmt.Sprintf("cell-%03d", i*31%97), nil
	}
	serial, err := Map(context.Background(), New(1), 97, job)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := Map(context.Background(), New(workers), 97, job)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: result %d differs: %q vs %q", workers, i, par[i], serial[i])
			}
		}
	}
}

// TestMapSerialAllocatesNothing pins the serial path the fleet runs
// every epoch at one worker: with a zero-size result, Map allocates
// nothing — no goroutine state, no captured context.
func TestMapSerialAllocatesNothing(t *testing.T) {
	p := New(1)
	sum := 0
	fn := func(i int) (struct{}, error) {
		sum += i
		return struct{}{}, nil
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Map(context.Background(), p, 8, fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("serial Map allocates %.1f objects per call, want 0", allocs)
	}
	if sum != 101*28 {
		t.Fatalf("fn ran %d index-sum, want %d", sum, 101*28)
	}
}
