package faults

import (
	"context"
	"maps"
	"sync"
	"time"

	"repro/internal/fetch"
)

// Fetcher injects the plan's faults in front of any fetch.Fetcher. It
// is attempt-aware: the Retrier passes the retry attempt through
// FetchAttempt, and since fault decisions hash the attempt number, a
// host that timed out on attempt 0 may answer on attempt 1 — with the
// same seed always healing (or not) at the same attempt. It tallies
// its injections by kind; decisions hash (fault seed, host, attempt)
// and attempt sequences are deterministic, so the tally is too.
type Fetcher struct {
	Inner fetch.Fetcher
	Plan  *Plan

	mu       sync.Mutex
	injected map[string]int64
}

// Injections returns the faults injected so far by kind; nil when
// none were.
func (f *Fetcher) Injections() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return maps.Clone(f.injected)
}

// Fetch implements fetch.Fetcher as attempt 0.
func (f *Fetcher) Fetch(ctx context.Context, url string) (*fetch.Response, error) {
	return f.FetchAttempt(ctx, url, 0)
}

// FetchAttempt implements fetch.AttemptFetcher.
func (f *Fetcher) FetchAttempt(ctx context.Context, url string, attempt int) (*fetch.Response, error) {
	host := hostOf(url)
	ft := f.Plan.FetchFault(host, attempt)
	if ft.Kind != KindNone {
		f.mu.Lock()
		if f.injected == nil {
			f.injected = map[string]int64{}
		}
		f.injected[string(ft.Kind)]++
		f.mu.Unlock()
	}
	switch ft.Kind {
	case KindTimeout:
		return nil, &TimeoutError{Host: host}
	case KindReset:
		return nil, &ResetError{Host: host}
	case KindHTTP5xx:
		return &fetch.Response{
			Status:      ft.Status,
			ContentType: "text/html",
			Body:        []byte("<html><body>injected upstream error</body></html>"),
		}, nil
	case KindSlow:
		if !sleepCtx(ctx, ft.Delay) {
			return nil, ctx.Err()
		}
	}
	resp, err := f.fetchInner(ctx, url, attempt)
	if err != nil || resp == nil {
		return resp, err
	}
	if ft.Kind == KindTruncate && len(resp.Body) > 0 {
		cut := len(resp.Body) / 2
		resp.Body = resp.Body[:cut]
		resp.BodySize = int64(cut)
		resp.Truncated = true
	}
	return resp, err
}

func (f *Fetcher) fetchInner(ctx context.Context, url string, attempt int) (*fetch.Response, error) {
	if af, ok := f.Inner.(fetch.AttemptFetcher); ok {
		return af.FetchAttempt(ctx, url, attempt)
	}
	return f.Inner.Fetch(ctx, url)
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
