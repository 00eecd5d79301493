package parallel

import (
	"errors"
	"sync"
)

// Memo is a concurrent singleflight memo of a pure function: Get computes
// each key's value once, however many goroutines ask for it at the same
// time, and serves every later request from the stored value, shared
// across callers and read-only. A failed compute is never memoized: its
// error goes to the callers that waited on it and the key is forgotten,
// so the next Get computes again — a cancelled run, say, is a property of
// the caller's context, not of the key. The zero value is an empty memo.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	done    map[K]V
	pending map[K]*memoCall[V]
}

// memoCall is one compute in flight, dropped once it returns: a memoized
// key costs its map slot and nothing else.
type memoCall[V any] struct {
	wg  sync.WaitGroup
	v   V
	err error
}

var errComputePanicked = errors.New("parallel: memo compute panicked")

// Get returns the value memoized under k, calling compute on a miss.
// Callers of one key block until its first compute returns. A hit
// allocates nothing.
func (m *Memo[K, V]) Get(k K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	if v, ok := m.done[k]; ok {
		m.mu.Unlock()
		return v, nil
	}
	if c := m.pending[k]; c != nil {
		m.mu.Unlock()
		c.wg.Wait()
		return c.v, c.err
	}
	if m.done == nil {
		m.done, m.pending = map[K]V{}, map[K]*memoCall[V]{}
	}
	c := &memoCall[V]{err: errComputePanicked}
	c.wg.Add(1)
	m.pending[k] = c
	m.mu.Unlock()

	// Deferred: a compute that panics still releases its waiters.
	defer func() {
		m.mu.Lock()
		delete(m.pending, k)
		if c.err == nil {
			m.done[k] = c.v
		}
		m.mu.Unlock()
		c.wg.Done()
	}()
	c.v, c.err = compute()
	return c.v, c.err
}

// Len returns the number of keys memoized or being computed.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.done) + len(m.pending)
}
