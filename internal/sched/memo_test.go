package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoSingleFlight: N goroutines on one key run fn exactly once,
// the first reports Miss and the waiters Coalesced, and a call after
// the value settles is a plain Hit.
func TestMemoSingleFlight(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int64
	release := make(chan struct{})
	fn := func() int {
		calls.Add(1)
		<-release
		return 42
	}

	const workers = 8
	kinds := make([]Lookup, workers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var v int
		v, kinds[0] = m.Do("k", fn)
		if v != 42 {
			t.Errorf("filler got %d", v)
		}
	}()
	// The filler owns the entry once Len reports it.
	for m.Len() == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var v int
			v, kinds[i] = m.Do("k", func() int {
				t.Error("second fn ran for a key in flight")
				return 0
			})
			if v != 42 {
				t.Errorf("waiter %d got %d", i, v)
			}
		}(i)
	}
	// Release the fill only once every waiter has coalesced onto it.
	deadline := time.Now().Add(5 * time.Second)
	for m.Waiting() < workers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers coalesced", m.Waiting(), workers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if kinds[0] != Miss {
		t.Errorf("filler reported %v, want Miss", kinds[0])
	}
	for i := 1; i < workers; i++ {
		if kinds[i] != Coalesced {
			t.Errorf("waiter %d reported %v, want Coalesced", i, kinds[i])
		}
	}
	if v, kind := m.Do("k", fn); v != 42 || kind != Hit {
		t.Errorf("settled Do = %d, %v; want 42, Hit", v, kind)
	}
	if m.Len() != 1 || m.Waiting() != 0 {
		t.Errorf("Len = %d, Waiting = %d; want 1, 0", m.Len(), m.Waiting())
	}
}

// TestMemoKeepsErrors: an error-carrying value is memoised like any
// other — the negative-entry case — and keys stay independent.
func TestMemoKeepsErrors(t *testing.T) {
	type result struct {
		n   int
		err error
	}
	var m Memo[string, result]
	boom := errors.New("NXDOMAIN")
	calls := 0
	bad := func() result { calls++; return result{err: boom} }
	for i := 0; i < 3; i++ {
		r, kind := m.Do("bad", bad)
		if !errors.Is(r.err, boom) {
			t.Fatalf("lookup %d: err = %v, want the memoised failure", i, r.err)
		}
		if want := map[bool]Lookup{true: Miss, false: Hit}[i == 0]; kind != want {
			t.Errorf("lookup %d reported %v, want %v", i, kind, want)
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1 (negative entry memoised)", calls)
	}
	if r, kind := m.Do("good", func() result { return result{n: 7} }); r.n != 7 || r.err != nil || kind != Miss {
		t.Errorf("independent key = %+v, %v", r, kind)
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
}
