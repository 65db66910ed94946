package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

// TestSubmitAccountsQueueDepth: every accepted Submit counts as a
// task, the depth gauge returns to zero once the queue drains, and a
// cancelled submit leaves no residue.
func TestSubmitAccountsQueueDepth(t *testing.T) {
	reg := metrics.New()
	m := &reg.Sched
	p := NewPool(2)
	defer p.Close()
	p.SetMetrics(m)

	const tasks = 20
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		if !p.Submit(context.Background(), func() { wg.Done() }) {
			t.Fatal("submit refused with a live context")
		}
	}
	wg.Wait()
	if got := m.TasksSubmitted.Load(); got != tasks {
		t.Errorf("TasksSubmitted = %d, want %d", got, tasks)
	}
	if got := reg.Snapshot().Runtime.Sched.QueueWait.Count; got != tasks {
		t.Errorf("QueueWait observations = %d, want %d", got, tasks)
	}
	if got := m.QueueDepth.Value(); got != 0 {
		t.Errorf("QueueDepth = %d after drain, want 0", got)
	}
	if hw := m.QueueDepth.HighWater(); hw < 1 {
		t.Errorf("QueueDepth high-water = %d, want ≥ 1", hw)
	}

	// A cancelled submit must reverse its accounting. Saturate the pool
	// and its buffer first so the send genuinely blocks.
	release := make(chan struct{})
	accepted := 0
	for i := 0; i < p.workers*2; i++ {
		if p.Submit(context.Background(), func() { <-release }) {
			accepted++
		}
	}
	before := m.TasksSubmitted.Load()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if p.Submit(ctx, func() { t.Error("cancelled task ran") }) {
		t.Fatal("submit accepted on a dead context")
	}
	close(release)
	if got := m.TasksSubmitted.Load(); got != before {
		t.Errorf("cancelled submit moved TasksSubmitted from %d to %d", before, got)
	}
}

// TestWorkersBusyHighWater: occupancy tracking must see the workers
// that are genuinely concurrent.
func TestWorkersBusyHighWater(t *testing.T) {
	const workers = 4
	reg := metrics.New()
	m := &reg.Sched
	p := NewPool(workers)
	defer p.Close()
	p.SetMetrics(m)

	var entered sync.WaitGroup
	release := make(chan struct{})
	entered.Add(workers)
	var done sync.WaitGroup
	for i := 0; i < workers; i++ {
		done.Add(1)
		p.Submit(context.Background(), func() {
			defer done.Done()
			entered.Done()
			<-release
		})
	}
	entered.Wait() // all workers are inside a task right now
	if got := m.WorkersBusy.Value(); got != workers {
		t.Errorf("WorkersBusy = %d with %d blocked tasks", got, workers)
	}
	close(release)
	done.Wait()
	if hw := m.WorkersBusy.HighWater(); hw != workers {
		t.Errorf("WorkersBusy high-water = %d, want %d", hw, workers)
	}
}

// TestSetMetricsNilDetaches: a pool must run fine with metrics
// detached mid-flight — recording is strictly optional.
func TestSetMetricsNilDetaches(t *testing.T) {
	reg := metrics.New()
	m := &reg.Sched
	p := NewPool(2)
	defer p.Close()
	p.SetMetrics(m)
	var ran atomic.Int64
	p.Do(context.Background(), func() { ran.Add(1) })
	p.SetMetrics(nil)
	p.Each(context.Background(), 100, func(i int) { ran.Add(1) })
	if !p.Do(context.Background(), func() { ran.Add(1) }) {
		t.Fatal("task refused after detach")
	}
	if got := m.TasksSubmitted.Load(); got != 1 {
		t.Errorf("TasksSubmitted = %d after detach, want 1", got)
	}
	if got := ran.Load(); got != 102 {
		t.Errorf("ran %d functions, want 102", got)
	}
}
