package fetch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// scriptFetcher returns a scripted sequence of outcomes per URL and
// records how many attempts it saw.
type scriptFetcher struct {
	mu       sync.Mutex
	script   map[string][]outcome // consumed front to back; last repeats
	attempts map[string][]int     // attempt numbers observed per URL
}

type outcome struct {
	resp *Response
	err  error
}

func newScriptFetcher() *scriptFetcher {
	return &scriptFetcher{script: map[string][]outcome{}, attempts: map[string][]int{}}
}

func (f *scriptFetcher) add(url string, outs ...outcome) { f.script[url] = outs }

func (f *scriptFetcher) Fetch(ctx context.Context, url string) (*Response, error) {
	return f.FetchAttempt(ctx, url, 0)
}

func (f *scriptFetcher) FetchAttempt(ctx context.Context, url string, attempt int) (*Response, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempts[url] = append(f.attempts[url], attempt)
	outs := f.script[url]
	if len(outs) == 0 {
		return &Response{Status: 200}, nil
	}
	o := outs[0]
	if len(outs) > 1 {
		f.script[url] = outs[1:]
	}
	return o.resp, o.err
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "deadline exceeded (test)" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestRetrierFlakyThenSuccess(t *testing.T) {
	f := newScriptFetcher()
	f.add("u", outcome{err: timeoutErr{}}, outcome{err: timeoutErr{}}, outcome{resp: &Response{Status: 200}})
	r := &Retrier{Inner: f, Policy: RetryPolicy{BaseDelay: time.Microsecond}}
	resp, err := r.Fetch(context.Background(), "u")
	if err != nil || resp.Status != 200 {
		t.Fatalf("got %v, %+v", err, resp)
	}
	if got := f.attempts["u"]; len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("attempt sequence %v, want [0 1 2]", got)
	}
	st := r.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.BudgetDenied != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestRetrierRetriesByKindConcurrent: the per-kind retry tally sums to
// Retries when many goroutines share one Retrier.
func TestRetrierRetriesByKindConcurrent(t *testing.T) {
	const n = 16
	f := newScriptFetcher()
	for i := 0; i < n; i++ {
		f.add(fmt.Sprintf("t%d", i), outcome{err: timeoutErr{}}, outcome{err: timeoutErr{}}, outcome{resp: &Response{Status: 200}})
		f.add(fmt.Sprintf("f%d", i), outcome{resp: &Response{Status: 502}}, outcome{resp: &Response{Status: 200}})
	}
	r := &Retrier{Inner: f, Policy: RetryPolicy{BaseDelay: time.Microsecond}}
	if got := r.Stats().RetriesByKind; got != nil {
		t.Fatalf("fresh retrier tallies %v", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		for _, u := range []string{fmt.Sprintf("t%d", i), fmt.Sprintf("f%d", i)} {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				if _, err := r.Fetch(context.Background(), u); err != nil {
					t.Error(err)
				}
			}(u)
		}
	}
	wg.Wait()
	st := r.Stats()
	want := map[string]int64{string(FailTimeout): 2 * n, string(Fail5xx): n}
	if st.Retries != 3*n || !reflect.DeepEqual(st.RetriesByKind, want) {
		t.Errorf("retries %d by kind %v, want %d by kind %v", st.Retries, st.RetriesByKind, 3*n, want)
	}
}

func TestRetrierTerminalNoRetry(t *testing.T) {
	f := newScriptFetcher()
	f.add("nx", outcome{err: fmt.Errorf("resolve: %w", ErrHostNotFound)})
	f.add("geo", outcome{resp: &Response{Status: 403}})
	r := &Retrier{Inner: f, Policy: RetryPolicy{BaseDelay: time.Microsecond}}

	if _, err := r.Fetch(context.Background(), "nx"); !errors.Is(err, ErrHostNotFound) {
		t.Fatalf("err = %v", err)
	}
	if n := len(f.attempts["nx"]); n != 1 {
		t.Errorf("NXDOMAIN fetched %d times, want 1", n)
	}
	resp, err := r.Fetch(context.Background(), "geo")
	if err != nil || resp.Status != 403 {
		t.Fatalf("got %v, %+v", err, resp)
	}
	if n := len(f.attempts["geo"]); n != 1 {
		t.Errorf("geo-block fetched %d times, want 1", n)
	}
}

func TestRetrierRetries5xxAndTruncation(t *testing.T) {
	f := newScriptFetcher()
	f.add("five", outcome{resp: &Response{Status: 502}}, outcome{resp: &Response{Status: 200}})
	f.add("trunc", outcome{resp: &Response{Status: 200, Truncated: true}}, outcome{resp: &Response{Status: 200}})
	r := &Retrier{Inner: f, Policy: RetryPolicy{BaseDelay: time.Microsecond}}
	for _, u := range []string{"five", "trunc"} {
		resp, err := r.Fetch(context.Background(), u)
		if err != nil || resp.Status != 200 || resp.Truncated {
			t.Fatalf("%s: got %v, %+v", u, err, resp)
		}
		if n := len(f.attempts[u]); n != 2 {
			t.Errorf("%s fetched %d times, want 2", u, n)
		}
	}
}

func TestRetrierAttemptsExhausted(t *testing.T) {
	f := newScriptFetcher()
	f.add("u", outcome{err: timeoutErr{}})
	r := &Retrier{Inner: f, Policy: RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond}}
	_, err := r.Fetch(context.Background(), "u")
	if err == nil {
		t.Fatal("exhausted retries returned success")
	}
	if n := len(f.attempts["u"]); n != 4 {
		t.Errorf("fetched %d times, want 4", n)
	}
	if ClassifyError(err) != FailTimeout {
		t.Errorf("final error classified %q", ClassifyError(err))
	}
}

func TestRetrierNegativeMaxAttempts(t *testing.T) {
	f := newScriptFetcher()
	f.add("u", outcome{err: timeoutErr{}})
	r := &Retrier{Inner: f, Policy: RetryPolicy{MaxAttempts: -1}}
	if _, err := r.Fetch(context.Background(), "u"); err == nil {
		t.Fatal("want error")
	}
	if n := len(f.attempts["u"]); n != 1 {
		t.Errorf("fetched %d times, want exactly 1", n)
	}
}

// fixedBudget allows n acquisitions.
type fixedBudget struct {
	mu sync.Mutex
	n  int
}

func (b *fixedBudget) Acquire() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n <= 0 {
		return false
	}
	b.n--
	return true
}

func TestRetrierBudgetDenial(t *testing.T) {
	f := newScriptFetcher()
	f.add("u", outcome{err: timeoutErr{}})
	r := &Retrier{
		Inner:  f,
		Policy: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond},
		Budget: &fixedBudget{n: 1},
	}
	if _, err := r.Fetch(context.Background(), "u"); err == nil {
		t.Fatal("want error")
	}
	// 1 initial + 1 budgeted retry; the second retry is denied.
	if n := len(f.attempts["u"]); n != 2 {
		t.Errorf("fetched %d times, want 2", n)
	}
	st := r.Stats()
	if st.Retries != 1 || st.BudgetDenied != 1 {
		t.Errorf("stats %+v", st)
	}
}

// slowFetcher blocks until its context dies.
type slowFetcher struct{}

func (slowFetcher) Fetch(ctx context.Context, url string) (*Response, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestRetrierPerAttemptTimeout(t *testing.T) {
	r := &Retrier{
		Inner: slowFetcher{},
		Policy: RetryPolicy{
			MaxAttempts: 2, PerAttemptTimeout: time.Millisecond, BaseDelay: time.Microsecond,
		},
	}
	start := time.Now()
	_, err := r.Fetch(context.Background(), "u")
	if err == nil {
		t.Fatal("want timeout error")
	}
	if ClassifyError(err) != FailTimeout {
		t.Errorf("classified %q", ClassifyError(err))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("per-attempt timeout did not bound the fetch: %v", elapsed)
	}
	if st := r.Stats(); st.Attempts != 2 {
		t.Errorf("stats %+v, want 2 attempts", st)
	}
}

func TestRetrierCancelledParentStopsRetrying(t *testing.T) {
	f := newScriptFetcher()
	f.add("u", outcome{err: timeoutErr{}})
	r := &Retrier{Inner: f, Policy: RetryPolicy{MaxAttempts: 10, BaseDelay: time.Microsecond}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Fetch(ctx, "u"); err == nil {
		t.Fatal("want error")
	}
	if n := len(f.attempts["u"]); n != 1 {
		t.Errorf("fetched %d times against a dead context, want 1", n)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	a := &Retrier{Policy: RetryPolicy{Seed: 42}}
	b := &Retrier{Policy: RetryPolicy{Seed: 42}}
	c := &Retrier{Policy: RetryPolicy{Seed: 43}}
	diverged := false
	for attempt := 0; attempt < 8; attempt++ {
		for _, u := range []string{"u1", "u2", "u3"} {
			da, db := a.backoff(u, attempt), b.backoff(u, attempt)
			if da != db {
				t.Fatalf("same seed diverged: %v vs %v", da, db)
			}
			if da != c.backoff(u, attempt) {
				diverged = true
			}
			max := a.Policy.maxDelay()
			if da < a.Policy.baseDelay()/2 && attempt == 0 || da > max {
				t.Errorf("backoff(%s, %d) = %v out of [base/2, max=%v]", u, attempt, da, max)
			}
		}
	}
	if !diverged {
		t.Error("seeds 42 and 43 gave identical backoff schedules")
	}
}

func TestClassifyResponse(t *testing.T) {
	cases := []struct {
		resp *Response
		want FailKind
	}{
		{&Response{Status: 200}, FailNone},
		{&Response{Status: 403}, FailGeoBlocked},
		{&Response{Status: 500}, Fail5xx},
		{&Response{Status: 503}, Fail5xx},
		{&Response{Status: 200, Truncated: true}, FailTruncated},
	}
	for _, c := range cases {
		if got := ClassifyResponse(c.resp); got != c.want {
			t.Errorf("ClassifyResponse(%+v) = %q, want %q", c.resp, got, c.want)
		}
	}
}
