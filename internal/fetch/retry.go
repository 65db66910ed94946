package fetch

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"maps"
	"sync"
	"sync/atomic"
	"time"
)

// RetryBudget caps how many extra attempts a whole study may spend;
// sched.Budget implements it. A nil budget means unlimited.
type RetryBudget interface {
	// Acquire consumes one retry token, reporting false when the
	// budget is exhausted.
	Acquire() bool
}

// RetryPolicy parameterises the Retrier. The zero value is usable:
// three attempts per URL, 1ms–50ms capped exponential backoff (the
// synthetic web answers in microseconds, so real-web second-scale
// backoffs would only slow the harness), no per-attempt timeout.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per URL including
	// the first; 0 means 3, negative means exactly one attempt.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry. 0 means 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means 50ms.
	MaxDelay time.Duration
	// PerAttemptTimeout bounds each individual attempt; 0 leaves only
	// the caller's context deadline.
	PerAttemptTimeout time.Duration
	// Seed drives the backoff jitter: the delay before retry n of a
	// URL is a pure function of (Seed, url, n), so equal seeds sleep
	// equal schedules regardless of worker interleaving.
	Seed int64
}

func (p RetryPolicy) maxAttempts() int {
	switch {
	case p.MaxAttempts == 0:
		return 3
	case p.MaxAttempts < 0:
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay == 0 {
		return time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay == 0 {
		return 50 * time.Millisecond
	}
	return p.MaxDelay
}

// RetryStats is a snapshot of a Retrier's counters. Attempt and retry
// counts are deterministic, because retry decisions hash (seed, url,
// attempt); budget denials are not.
type RetryStats struct {
	Attempts     uint64 // individual fetch attempts issued
	Retries      uint64 // attempts beyond each URL's first
	BudgetDenied uint64 // retries skipped because the study budget ran dry
	// RetriesByKind splits Retries by the failure kind that triggered
	// them; nil when nothing retried.
	RetriesByKind map[string]int64
}

// Retrier wraps a Fetcher with classification-driven retries: terminal
// failures (NXDOMAIN, geo-blocks) return immediately, transient ones
// (timeouts, resets, 5xx, truncation) retry up to the policy's attempt
// cap with capped exponential backoff and seeded jitter. When the
// inner fetcher is attempt-aware the attempt number is passed through,
// which is what lets the deterministic fault injector heal a host on a
// later attempt. Safe for concurrent use.
type Retrier struct {
	Inner  Fetcher
	Policy RetryPolicy
	// Budget, when non-nil, is consulted before every retry; it is the
	// study-wide valve that keeps a fault storm from starving fresh
	// work. Exhaustion downgrades failures to terminal, it never
	// aborts.
	Budget RetryBudget

	attempts, retries, denied atomic.Uint64

	mu     sync.Mutex
	byKind map[string]int64
}

// Fetch implements Fetcher.
func (r *Retrier) Fetch(ctx context.Context, url string) (*Response, error) {
	max := r.Policy.maxAttempts()
	af, _ := r.Inner.(AttemptFetcher)
	var resp *Response
	var err error
	for attempt := 0; attempt < max; attempt++ {
		actx, cancel := ctx, func() {}
		if t := r.Policy.PerAttemptTimeout; t > 0 {
			//lint:ignore context-cancel -- per-attempt context; cancel() runs unconditionally right after the attempt, a defer would pile timers up across the retry loop
			actx, cancel = context.WithTimeout(ctx, t)
		}
		if af != nil {
			resp, err = af.FetchAttempt(actx, url, attempt)
		} else {
			resp, err = r.Inner.Fetch(actx, url)
		}
		cancel()
		r.attempts.Add(1)

		// The failure kind both drives the retry decision and labels
		// the retry in the per-kind tally.
		var retryable bool
		var kind FailKind
		if err != nil {
			retryable = RetryableError(err)
			kind = ClassifyError(err)
		} else {
			kind = ClassifyResponse(resp)
			retryable = RetryableKind(kind)
		}
		if !retryable || attempt+1 >= max {
			return resp, err
		}
		// A dead parent context explains any failure; do not spin on it.
		if ctx.Err() != nil {
			return resp, err
		}
		if r.Budget != nil && !r.Budget.Acquire() {
			r.denied.Add(1)
			return resp, err
		}
		r.retries.Add(1)
		r.mu.Lock()
		if r.byKind == nil {
			r.byKind = map[string]int64{}
		}
		r.byKind[string(kind)]++
		r.mu.Unlock()
		if !sleepCtx(ctx, r.backoff(url, attempt)) {
			return resp, err
		}
	}
	return resp, err
}

// backoff computes the deterministic delay before retrying url after
// its attempt-th try: exponential from BaseDelay, capped at MaxDelay,
// scaled by a jitter factor in [0.5, 1.0) hashed from (seed, url,
// attempt) — seeded jitter without any shared random stream, so equal
// seeds give equal schedules at any concurrency.
func (r *Retrier) backoff(url string, attempt int) time.Duration {
	d := r.Policy.baseDelay() << uint(attempt)
	if m := r.Policy.maxDelay(); d > m || d <= 0 {
		d = m
	}
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(r.Policy.Seed))
	h.Write(buf[:])
	h.Write([]byte(url))
	binary.LittleEndian.PutUint32(buf[:4], uint32(attempt))
	h.Write(buf[:4])
	frac := float64(h.Sum64()%1024) / 1024
	return time.Duration(float64(d) * (0.5 + 0.5*frac))
}

// sleepCtx waits d or until ctx is done, reporting whether the full
// delay elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Stats snapshots the counters.
func (r *Retrier) Stats() RetryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RetryStats{
		Attempts:      r.attempts.Load(),
		Retries:       r.retries.Load(),
		BudgetDenied:  r.denied.Load(),
		RetriesByKind: maps.Clone(r.byKind),
	}
}
