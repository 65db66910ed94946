package sched

import (
	"sync"
	"sync/atomic"
)

// Lookup says how Memo.Do found a key's value.
type Lookup uint8

const (
	// Miss: this call created the entry and ran fn.
	Miss Lookup = iota
	// Hit: the value had settled before this call looked.
	Hit
	// Coalesced: this call found another caller's fn still running
	// and waited for its value — an interleaving artifact, so callers
	// record it on the runtime side of their metrics.
	Coalesced
)

// Memo is a keyed single-flight memo: the first Do for a key runs fn
// and every later Do for that key returns the same value, waiting if
// fn is still running. A value is never recomputed or evicted, so an
// error-carrying value stays memoised as a negative entry. The zero
// Memo is empty and ready to use; it must not be copied after first
// use.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	m       map[K]*memoEntry[V]
	waiting int
}

// memoEntry is one key's slot. The WaitGroup holds one count from
// creation until v lands, so waiters block on it; done lets a later
// lookup tell a settled value from one still in flight.
type memoEntry[V any] struct {
	wg   sync.WaitGroup
	done atomic.Bool
	v    V
}

// Do returns key's value, running fn to compute it if no caller has
// before, and reports how the value was found.
func (m *Memo[K, V]) Do(key K, fn func() V) (V, Lookup) {
	m.mu.Lock()
	e := m.m[key]
	if e == nil {
		if m.m == nil {
			m.m = make(map[K]*memoEntry[V])
		}
		e = &memoEntry[V]{}
		e.wg.Add(1)
		m.m[key] = e
		m.mu.Unlock()
		// Releasing in a defer frees the waiters even if fn panics;
		// they then see the zero value, as sync.Once callers would.
		defer e.wg.Done()
		e.v = fn()
		e.done.Store(true)
		return e.v, Miss
	}
	if e.done.Load() {
		m.mu.Unlock()
		return e.v, Hit
	}
	m.waiting++
	m.mu.Unlock()
	e.wg.Wait()
	m.mu.Lock()
	m.waiting--
	m.mu.Unlock()
	return e.v, Coalesced
}

// Len reports how many keys hold a value or a computation in flight.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Waiting reports how many Do calls are blocked on another caller's
// fn right now. Tests use it to hold a computation open until every
// concurrent caller has coalesced onto it.
//
//lint:ignore test-only-export -- core's TestRescacheSingleFlight and serve's TestCacheCoalesceUnderStampede wait on it for every caller to coalesce
func (m *Memo[K, V]) Waiting() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.waiting
}
