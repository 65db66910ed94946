// Package sched provides the bounded, context-aware worker pool that
// backs the measurement pipeline. One pool owns every fetch/annotate
// task across all concurrently crawled countries, so the number of
// goroutines a study run spawns is the configured budget — not, as a
// per-country pool would make it, the square of the concurrency knob.
// Large-scale hosting studies (Pythia; Moura et al.'s consolidation
// sweeps) use the same shape to keep million-URL runs tractable.
package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Pool is a fixed-size worker pool. Tasks submitted with Submit run on
// one of the pool's workers; Close drains in-flight work and stops the
// workers. A Pool is safe for concurrent use by multiple submitters —
// several crawls can share one pool.
type Pool struct {
	tasks   chan func()
	workers int
	wg      sync.WaitGroup
	budget  *Budget
	// metrics is read through an atomic pointer so SetMetrics can be
	// called after NewPool (workers are already running by then)
	// without racing the worker loop's loads.
	metrics atomic.Pointer[metrics.SchedMetrics]
}

// Budget is a study-wide cap on retry attempts, shared by every crawl
// that runs on one pool: each retry consumes one token, and once the
// tokens are gone transient failures become terminal instead of
// spawning more attempts — retries can never starve fresh work of
// worker time. It is a safety valve, not a scheduling primitive: runs
// where the budget binds trade byte-reproducibility (which retries got
// the last tokens depends on worker interleaving) for bounded cost, so
// the default study budget is unlimited and chaos determinism tests
// leave it that way.
type Budget struct {
	remaining atomic.Int64
	unlimited bool
	used      atomic.Int64
}

// NewBudget builds a budget of n retry tokens; n < 0 means unlimited.
func NewBudget(n int64) *Budget {
	b := &Budget{unlimited: n < 0}
	b.remaining.Store(n)
	return b
}

// Acquire consumes one token, reporting false when none remain.
func (b *Budget) Acquire() bool {
	if b == nil {
		return true
	}
	if b.unlimited {
		b.used.Add(1)
		return true
	}
	if b.remaining.Add(-1) < 0 {
		b.remaining.Add(1) // leave the floor at zero for Remaining
		return false
	}
	b.used.Add(1)
	return true
}

// Remaining reports the unconsumed tokens (negative means unlimited).
func (b *Budget) Remaining() int64 {
	if b.unlimited {
		return -1
	}
	return b.remaining.Load()
}

// Used reports how many tokens were consumed.
func (b *Budget) Used() int64 { return b.used.Load() }

// SetRetryBudget attaches the study-wide retry budget. Call it before
// sharing the pool; fetch stacks read it via RetryBudget.
func (p *Pool) SetRetryBudget(b *Budget) { p.budget = b }

// RetryBudget returns the attached budget, nil when none was set.
func (p *Pool) RetryBudget() *Budget { return p.budget }

// SetMetrics attaches the scheduler's metrics slice: task
// submissions, queue-depth/occupancy high-water marks and queue-wait
// latencies. Nil detaches. Safe to call while the pool
// is running; recording starts with the next task.
func (p *Pool) SetMetrics(m *metrics.SchedMetrics) { p.metrics.Store(m) }

// ResolveWorkers maps a concurrency knob to a worker count: zero and
// negative values pick the default of 8, positive values stand. Every
// knob resolves through it: country and fetch concurrency, a
// standalone crawl's pool, the daemon's render pool and the analysis
// index build.
func ResolveWorkers(n int) int {
	if n <= 0 {
		return 8
	}
	return n
}

// NewPool starts a pool with the given number of worker goroutines.
// A non-positive count is clamped to 1.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = 1
	}
	// The task channel is buffered one slot per worker: submitters
	// enqueue without a goroutine-parking rendezvous when the pool is
	// keeping up, while execution stays bounded by the worker count.
	// The buffer only delays Submit's blocking, never the bound.
	p := &Pool{tasks: make(chan func(), workers), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for fn := range p.tasks {
				if m := p.metrics.Load(); m != nil {
					m.WorkersBusy.Inc()
					fn()
					m.WorkersBusy.Dec()
				} else {
					fn()
				}
			}
		}()
	}
	return p
}

// enqueue accounts for one task entering the queue and returns the
// closure to put on the channel; the wrapper settles the queue-depth
// gauge and queue-wait histogram when a worker picks the task up. The
// caller must call unenqueue if the send is abandoned.
//
//lint:ignore determinism-taint -- the wall-clock read times queue wait for the Runtime metrics half only; no dataset or snapshot bytes derive from it, so callers of Pool stay determinism-clean
func (p *Pool) enqueue(m *metrics.SchedMetrics, fn func()) func() {
	if m == nil {
		return fn
	}
	m.TasksSubmitted.Inc()
	m.QueueDepth.Inc()
	start := time.Now()
	return func() {
		m.QueueDepth.Dec()
		m.QueueWait.Observe(time.Since(start))
		fn()
	}
}

// unenqueue reverses enqueue's accounting for a task that was never
// sent (cancelled submit, busy pool).
func (p *Pool) unenqueue(m *metrics.SchedMetrics) {
	if m != nil {
		m.TasksSubmitted.Add(-1)
		m.QueueDepth.Dec()
	}
}

// Submit hands fn to a worker, blocking until one is free. It returns
// false without running fn when ctx is cancelled first, so queued work
// is abandoned promptly on cancellation instead of draining through
// the pool. Submitting after Close panics, as sends on a closed
// channel do.
func (p *Pool) Submit(ctx context.Context, fn func()) bool {
	// Prefer the cancellation signal even when a worker is also ready.
	select {
	case <-ctx.Done():
		return false
	default:
	}
	m := p.metrics.Load()
	wrapped := p.enqueue(m, fn)
	select {
	case p.tasks <- wrapped:
		return true
	case <-ctx.Done():
		p.unenqueue(m)
		return false
	}
}

// Do hands fn to a worker and waits for it to finish, reporting false
// without running fn when ctx is cancelled before a worker was free.
// It is the synchronous face of Submit — the serving daemon runs each
// request handler through it, so however many requests arrive, at most
// the pool's worker budget execute at once and the rest queue with
// backpressure instead of spawning goroutines.
func (p *Pool) Do(ctx context.Context, fn func()) bool {
	done := make(chan struct{})
	if !p.Submit(ctx, func() {
		defer close(done)
		fn()
	}) {
		return false
	}
	<-done
	return true
}

// Workers reports the pool's worker budget.
func (p *Pool) Workers() int {
	return p.workers
}

// Close stops the workers after the already-accepted tasks finish and
// waits for them to exit. No further Submit calls may follow.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}

// minChunk floors the per-claim batch size in Each: below this, the
// claim and handoff cost more than any load-balance win.
const minChunk = 8

// Each runs fn(i) for every i in [0, n) and waits for completion.
// The calling goroutine participates: it claims contiguous index
// chunks from an atomic cursor and runs them itself, while pool
// workers that can take work immediately steal chunks alongside it.
// The caller was going to block on the result anyway, so a batch the
// pool is too busy to help with degrades to an ordinary loop instead
// of queueing behind other callers — and the caller's own progress
// never requires a goroutine handoff, which on few-core machines is
// most of a small task's cost. On cancellation no further chunks are
// claimed and running chunks stop between items, so some fn calls may
// never happen; callers that need to know which ran should record
// completion in their per-index result slot.
func (p *Pool) Each(ctx context.Context, n int, fn func(i int)) {
	if n == 0 {
		return
	}
	// Several chunks per worker keeps load balanced when item costs
	// vary without giving back the per-chunk claim cost.
	chunk := n / (p.workers * 4)
	if chunk < minChunk {
		chunk = minChunk
	}
	if chunk >= n {
		for i := 0; i < n; i++ {
			if i > 0 && ctx.Err() != nil {
				break
			}
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	run := func() {
		for ctx.Err() == nil {
			start := int(cursor.Add(int64(chunk))) - chunk
			if start >= n {
				return
			}
			end := start + chunk
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				if i > start && ctx.Err() != nil {
					return
				}
				fn(i)
			}
		}
	}
	m := p.metrics.Load()
	// Recruit at most one helper per remaining chunk beyond the
	// caller's own, and only workers that are free right now — a busy
	// pool means the caller just does the work itself.
	helpers := (n+chunk-1)/chunk - 1
	if helpers > p.workers {
		helpers = p.workers
	}
	var wg sync.WaitGroup
	for i := 0; i < helpers; i++ {
		wg.Add(1)
		ok := false
		task := p.enqueue(m, run)
		select {
		case p.tasks <- func() { defer wg.Done(); task() }:
			ok = true
		default:
		}
		if !ok {
			p.unenqueue(m)
			wg.Done()
			break
		}
	}
	run()
	wg.Wait()
}

// Workers starts a fixed team of n goroutines running fn(w) and
// returns a wait function that blocks until every member has returned.
// It is the sanctioned spawn point for coordinator teams outside this
// package: the goroutine count is explicit up front and the completion
// barrier is part of the contract, so the spawn cannot leak past the
// calling function. (govlint's scheduler-bypass rule forbids naked go
// statements elsewhere; this helper and Pool are the ways through.)
func Workers(n int, fn func(w int)) (wait func()) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	return wg.Wait
}
