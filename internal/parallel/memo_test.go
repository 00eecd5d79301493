package parallel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoSingleflight: concurrent misses on one key run one compute and
// all see its value; another key computes on its own.
func TestMemoSingleflight(t *testing.T) {
	var m Memo[string, *int]
	const goroutines = 16
	var computes, asked atomic.Int64
	compute := func() (*int, error) {
		computes.Add(1)
		for asked.Load() < goroutines { // every caller asks before the first compute returns
			runtime.Gosched()
		}
		v := 7
		return &v, nil
	}
	got := make([]*int, goroutines)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			asked.Add(1)
			v, err := m.Get("k", compute)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("%d concurrent Gets of one key ran %d computes, want 1", goroutines, n)
	}
	for i, v := range got {
		if v == nil || v != got[0] || *v != 7 {
			t.Errorf("goroutine %d got %p, want the shared %p holding 7", i, v, got[0])
		}
	}
	if _, err := m.Get("other", compute); err != nil {
		t.Fatal(err)
	}
	if n, l := computes.Load(), m.Len(); n != 2 || l != 2 {
		t.Errorf("after a second key: %d computes, Len %d, want 2 and 2", n, l)
	}
}

// TestMemoForgetsErrors: a failed compute reaches its caller and leaves
// nothing behind, so the next Get of the key computes again.
func TestMemoForgetsErrors(t *testing.T) {
	var m Memo[int, string]
	boom := errors.New("boom")
	if _, err := m.Get(1, func() (string, error) { return "", boom }); !errors.Is(err, boom) {
		t.Fatalf("Get = %v, want %v", err, boom)
	}
	if l := m.Len(); l != 0 {
		t.Errorf("Len = %d after a failed compute, want 0", l)
	}
	v, err := m.Get(1, func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("Get after a failure = %q, %v, want a fresh compute", v, err)
	}
	if l := m.Len(); l != 1 {
		t.Errorf("Len = %d, want 1", l)
	}

	// A compute that panics is a failure too: the panic reaches its
	// caller, and the key is not left in flight for the next Get to wait
	// on forever.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a panicking compute did not panic its caller")
			}
		}()
		m.Get(2, func() (string, error) { panic("boom") })
	}()
	if v, err := m.Get(2, func() (string, error) { return "ok", nil }); err != nil || v != "ok" {
		t.Fatalf("Get after a panic = %q, %v, want a fresh compute", v, err)
	}
}

type memoKey struct {
	seed int64
	rate float64
}

// TestMemoHitAllocatesNothing: every simulation draws its arrival and
// deadline tapes through a memo, so a hit must cost no allocation — not
// even the compute closure, which only a miss calls.
func TestMemoHitAllocatesNothing(t *testing.T) {
	var m Memo[memoKey, *[4]int64]
	get := func(seed int64, rate float64) *[4]int64 {
		v, _ := m.Get(memoKey{seed, rate}, func() (*[4]int64, error) {
			return &[4]int64{seed}, nil
		})
		return v
	}
	want := get(3, 0.5)
	var got *[4]int64
	if allocs := testing.AllocsPerRun(100, func() { got = get(3, 0.5) }); allocs != 0 {
		t.Errorf("a hit allocates %v times, want 0", allocs)
	}
	if got != want {
		t.Error("a hit returned a different value")
	}
}
