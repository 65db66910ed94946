package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEveryTask(t *testing.T) {
	p := NewPool(4)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if !p.Submit(context.Background(), func() {
			defer wg.Done()
			n.Add(1)
		}) {
			t.Fatal("submit refused without cancellation")
		}
	}
	wg.Wait()
	p.Close()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

// TestEachRunsEveryIndexOnce: Each calls fn exactly once per index at
// any pool width, on the sequential small-batch path and the chunked
// helper path alike.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		p := NewPool(workers)
		for _, n := range []int{0, 3, 100, 1000} {
			hits := make([]atomic.Int32, n)
			p.Each(context.Background(), n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
		p.Close()
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	defer p.Close()
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		p.Submit(context.Background(), func() {
			defer wg.Done()
			now := running.Add(1)
			for {
				old := peak.Load()
				if now <= old || peak.CompareAndSwap(old, now) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
		})
	}
	wg.Wait()
	if peak.Load() > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", peak.Load(), workers)
	}
}

func TestPoolSubmitAbortsOnCancel(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	p.Submit(context.Background(), func() { defer wg.Done(); <-block })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if p.Submit(ctx, func() { t.Error("cancelled task ran") }) {
		t.Fatal("submit accepted work after cancellation")
	}
	close(block)
	wg.Wait()
}

func TestPoolGoroutineCountMatchesBudget(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(16)
	if got := runtime.NumGoroutine() - before; got > 16 {
		t.Fatalf("pool spawned %d goroutines for a budget of 16", got)
	}
	if p.workers != 16 {
		t.Fatalf("workers = %d, want 16", p.workers)
	}
	p.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("workers leaked after Close: %d > %d", now, before)
	}
}

func TestPoolClampsNonPositiveWorkers(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.workers != 1 {
		t.Fatalf("workers = %d, want 1 (clamped)", p.workers)
	}
	done := make(chan struct{})
	p.Submit(context.Background(), func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("zero-worker pool never ran the task (the deadlock this clamp prevents)")
	}
}

// TestResolveWorkers pins the one default every concurrency knob
// shares: unset and negative knobs pick 8, positive ones stand as
// given.
func TestResolveWorkers(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 8},
		{-1, 8},
		{-100, 8},
		{1, 1},
		{3, 3},
		{64, 64},
	} {
		if got := ResolveWorkers(tc.in); got != tc.want {
			t.Errorf("ResolveWorkers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestBudgetCountsDown(t *testing.T) {
	b := NewBudget(3)
	for i := 0; i < 3; i++ {
		if !b.Acquire() {
			t.Fatalf("Acquire %d denied with tokens left", i)
		}
	}
	if b.Acquire() {
		t.Fatal("Acquire succeeded past the budget")
	}
	if got := b.remaining.Load(); got != 0 {
		t.Errorf("remaining = %d after exhaustion, want 0", got)
	}
}

func TestBudgetUnlimitedAndNil(t *testing.T) {
	u := NewBudget(-1)
	for i := 0; i < 100; i++ {
		if !u.Acquire() {
			t.Fatal("unlimited budget denied")
		}
	}
	if !u.unlimited {
		t.Error("NewBudget(-1) is not unlimited")
	}
	var nb *Budget
	if !nb.Acquire() {
		t.Error("nil budget should always grant")
	}
}

// TestBudgetConcurrent hammers Acquire from many goroutines: exactly n
// grants, the floor stays at zero, and -race keeps it honest.
func TestBudgetConcurrent(t *testing.T) {
	const tokens, workers = 500, 8
	b := NewBudget(tokens)
	var granted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < tokens; i++ {
				if b.Acquire() {
					granted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if granted.Load() != tokens {
		t.Errorf("granted %d of %d tokens", granted.Load(), tokens)
	}
	if got := b.remaining.Load(); got != 0 {
		t.Errorf("remaining=%d after exhaustion", got)
	}
}

func TestPoolRetryBudgetAttachment(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if p.RetryBudget() != nil {
		t.Fatal("fresh pool has a budget")
	}
	b := NewBudget(1)
	p.SetRetryBudget(b)
	if p.RetryBudget() != b {
		t.Fatal("attached budget not returned")
	}
}
