package faults

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/fetch"
)

func TestParseProfileNamed(t *testing.T) {
	for name := range namedProfiles {
		p, err := ParseProfile(name)
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("ParseProfile(%q).Name = %q", name, p.Name)
		}
	}
	if p, err := ParseProfile("AGGRESSIVE"); err != nil || p.Name != "aggressive" {
		t.Errorf("named profiles should be case-insensitive: %+v, %v", p, err)
	}
	if p, err := ParseProfile(""); err != nil || p.Enabled() {
		t.Errorf("empty spec should be the off profile: %+v, %v", p, err)
	}
	if p, _ := ParseProfile("off"); p.Enabled() {
		t.Error("off profile reports Enabled")
	}
	if p, _ := ParseProfile("mild"); !p.Enabled() {
		t.Error("mild profile reports disabled")
	}
}

func TestParseProfileSpec(t *testing.T) {
	p, err := ParseProfile("timeout=0.25, reset=0.5,5xx=1,slowdelay=7ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.Timeout != 0.25 || p.Reset != 0.5 || p.HTTP5xx != 1 || p.SlowDelay != 7*time.Millisecond {
		t.Errorf("parsed %+v", p)
	}
	for _, bad := range []string{"timeout", "timeout=2", "timeout=x", "bogus=0.1", "slowdelay=fast"} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) accepted", bad)
		}
	}
}

// TestParseProfileRejectsNaNAndNegativeDelay: strconv.ParseFloat
// accepts "NaN", and NaN fails both halves of a `rate < 0 || rate > 1`
// check, so such a spec used to parse and silently inject nothing.
func TestParseProfileRejectsNaNAndNegativeDelay(t *testing.T) {
	for _, bad := range []string{"timeout=NaN", "servfail=nan", "flap=+NaN", "reset=-0.1", "5xx=Inf", "slowdelay=-1ms"} {
		if p, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) accepted: %+v", bad, p)
		}
	}
}

// FuzzParseProfile: ParseProfile never panics, and every profile it
// accepts has each rate in [0, 1] and a non-negative SlowDelay.
func FuzzParseProfile(f *testing.F) {
	for _, seed := range []string{"", "off", "mild", "aggressive", "timeout=0.25, reset=0.5,5xx=1,slowdelay=7ms", "servfail=0.9", "timeout=NaN", "slowdelay=-1ms"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseProfile(spec)
		if err != nil {
			return
		}
		rates := []float64{p.Timeout, p.Reset, p.HTTP5xx, p.Truncate, p.Slow, p.DeadHost, p.DNSServfail, p.EgressFlap}
		for i, r := range rates {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("ParseProfile(%q) accepted rate #%d = %v", spec, i, r)
			}
		}
		if p.SlowDelay < 0 {
			t.Fatalf("ParseProfile(%q) accepted SlowDelay %v", spec, p.SlowDelay)
		}
	})
}

// TestPlanDeterminism: equal (seed, profile) pairs must make identical
// decisions; different seeds must diverge somewhere.
func TestPlanDeterminism(t *testing.T) {
	prof := namedProfiles["aggressive"]
	a := NewPlan(7, prof)
	b := NewPlan(7, prof)
	c := NewPlan(8, prof)
	hosts := []string{"www.gub.uy", "mx.gov.example", "a", "b", "c", "d", "e", "f"}
	diverged := false
	for _, h := range hosts {
		for attempt := 0; attempt < 5; attempt++ {
			fa, fb := a.FetchFault(h, attempt), b.FetchFault(h, attempt)
			if fa != fb {
				t.Fatalf("same seed diverged for %s/%d: %+v vs %+v", h, attempt, fa, fb)
			}
			da, db := a.DNSFault(h, attempt), b.DNSFault(h, attempt)
			if (da == nil) != (db == nil) {
				t.Fatalf("same seed DNS diverged for %s/%d", h, attempt)
			}
			if fa != c.FetchFault(h, attempt) {
				diverged = true
			}
			if a.EgressFlap(h, attempt) != b.EgressFlap(h, attempt) {
				t.Fatalf("same seed flap diverged for %s/%d", h, attempt)
			}
		}
	}
	if !diverged {
		t.Error("seeds 7 and 8 made identical decisions across all probes")
	}
}

// TestPlanFaultRates sanity-checks that a rate-1.0 profile always
// faults and a zero profile never does.
func TestPlanFaultRates(t *testing.T) {
	always := NewPlan(1, Profile{Timeout: 1})
	never := NewPlan(1, Profile{})
	for i := 0; i < 50; i++ {
		h := strings.Repeat("h", i+1) + ".gov"
		if f := always.FetchFault(h, i); f.Kind != KindTimeout {
			t.Fatalf("timeout=1.0 produced %+v", f)
		}
		if f := never.FetchFault(h, i); f.Kind != KindNone {
			t.Fatalf("empty profile produced %+v", f)
		}
	}
}

// TestDeadHostPersists: a dead host is dead on every attempt (retries
// cannot heal it), while per-attempt timeouts can clear.
func TestDeadHostPersists(t *testing.T) {
	p := NewPlan(3, Profile{DeadHost: 0.2})
	var dead string
	for i := 0; i < 100 && dead == ""; i++ {
		h := fmt.Sprintf("h%d.gov", i)
		if p.FetchFault(h, 0).Kind == KindTimeout {
			dead = h
		}
	}
	if dead == "" {
		t.Fatal("no dead host among 100 at rate 0.2 — roll() is not uniform")
	}
	for attempt := 0; attempt < 10; attempt++ {
		if p.FetchFault(dead, attempt).Kind != KindTimeout {
			t.Fatalf("dead host %s healed at attempt %d", dead, attempt)
		}
	}
}

// innerFetcher records calls and returns a canned page.
type innerFetcher struct {
	calls int
	body  string
}

func (f *innerFetcher) Fetch(ctx context.Context, url string) (*fetch.Response, error) {
	f.calls++
	return &fetch.Response{
		Status: 200, ContentType: "text/html",
		Body: []byte(f.body), BodySize: int64(len(f.body)),
	}, nil
}

func TestFetcherInjectsTimeout(t *testing.T) {
	in := &innerFetcher{body: "<html></html>"}
	f := &Fetcher{Inner: in, Plan: NewPlan(1, Profile{Timeout: 1})}
	_, err := f.Fetch(context.Background(), "https://x.gov/")
	if err == nil {
		t.Fatal("no error injected")
	}
	var te interface{ Timeout() bool }
	if !errors.As(err, &te) || !te.Timeout() {
		t.Fatalf("injected error %v is not a timeout", err)
	}
	if fetch.ClassifyError(err) != fetch.FailTimeout {
		t.Errorf("classified as %q", fetch.ClassifyError(err))
	}
	if in.calls != 0 {
		t.Errorf("inner fetcher reached %d times through a timeout", in.calls)
	}
}

// TestFetcherInjectionsConcurrent: the injection tally counts every
// injected fault once when many goroutines share one Fetcher.
func TestFetcherInjectionsConcurrent(t *testing.T) {
	f := &Fetcher{Inner: &innerFetcher{}, Plan: NewPlan(1, Profile{Timeout: 1})}
	if got := f.Injections(); got != nil {
		t.Fatalf("fresh fetcher tallies %v", got)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				f.FetchAttempt(context.Background(), fmt.Sprintf("https://h%d.gov/", g), i)
			}
		}(g)
	}
	wg.Wait()
	if got := f.Injections(); len(got) != 1 || got[string(KindTimeout)] != 80 {
		t.Errorf("injections = %v, want 80 timeouts", got)
	}
}

func TestFetcherInjectsReset(t *testing.T) {
	f := &Fetcher{Inner: &innerFetcher{}, Plan: NewPlan(1, Profile{Reset: 1})}
	_, err := f.Fetch(context.Background(), "https://x.gov/")
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("injected reset %v does not unwrap to ECONNRESET", err)
	}
	if fetch.ClassifyError(err) != fetch.FailReset {
		t.Errorf("classified as %q", fetch.ClassifyError(err))
	}
}

func TestFetcherInjects5xx(t *testing.T) {
	f := &Fetcher{Inner: &innerFetcher{}, Plan: NewPlan(1, Profile{HTTP5xx: 1})}
	resp, err := f.Fetch(context.Background(), "https://x.gov/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status < 500 || resp.Status > 503 {
		t.Fatalf("injected status %d", resp.Status)
	}
	if fetch.ClassifyResponse(resp) != fetch.Fail5xx {
		t.Errorf("classified as %q", fetch.ClassifyResponse(resp))
	}
}

func TestFetcherTruncates(t *testing.T) {
	in := &innerFetcher{body: strings.Repeat("x", 100)}
	f := &Fetcher{Inner: in, Plan: NewPlan(1, Profile{Truncate: 1})}
	resp, err := f.Fetch(context.Background(), "https://x.gov/")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated || len(resp.Body) != 50 || resp.BodySize != 50 {
		t.Fatalf("truncation: Truncated=%v len=%d size=%d", resp.Truncated, len(resp.Body), resp.BodySize)
	}
	if fetch.ClassifyResponse(resp) != fetch.FailTruncated {
		t.Errorf("classified as %q", fetch.ClassifyResponse(resp))
	}
}

func TestFetcherSlowRespectsContext(t *testing.T) {
	in := &innerFetcher{body: "ok"}
	f := &Fetcher{Inner: in, Plan: NewPlan(1, Profile{Slow: 1, SlowDelay: time.Hour})}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.Fetch(ctx, "https://x.gov/")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("slow fault ignored cancellation: %v", err)
	}
	if in.calls != 0 {
		t.Error("inner fetch ran despite cancelled slow response")
	}

	// With a sane delay the response goes through.
	f.Plan = NewPlan(1, Profile{Slow: 1, SlowDelay: time.Microsecond})
	resp, err := f.Fetch(context.Background(), "https://x.gov/")
	if err != nil || resp.Status != 200 {
		t.Fatalf("slow response did not recover: %v %+v", err, resp)
	}
}

// TestFetcherHealsOnRetry: with a mid-rate profile, find a host whose
// attempt-0 fault clears on a later attempt and verify FetchAttempt
// reflects it — the mechanism the Retrier relies on.
func TestFetcherHealsOnRetry(t *testing.T) {
	plan := NewPlan(11, Profile{Timeout: 0.5})
	in := &innerFetcher{body: "ok"}
	f := &Fetcher{Inner: in, Plan: plan}
	for i := 0; i < 100; i++ {
		h := fmt.Sprintf("h%d.gov", i)
		url := "https://" + h + "/"
		if plan.FetchFault(h, 0).Kind != KindTimeout || plan.FetchFault(h, 1).Kind != KindNone {
			continue
		}
		if _, err := f.FetchAttempt(context.Background(), url, 0); err == nil {
			t.Fatalf("%s attempt 0 should time out", h)
		}
		resp, err := f.FetchAttempt(context.Background(), url, 1)
		if err != nil || resp.Status != 200 {
			t.Fatalf("%s attempt 1 should heal: %v", h, err)
		}
		return
	}
	t.Fatal("no heal-on-attempt-1 host among 100 at rate 0.5 — attempts do not re-roll")
}

func TestServfailClassification(t *testing.T) {
	err := NewPlan(1, Profile{DNSServfail: 1}).DNSFault("x.gov", 0)
	if err == nil {
		t.Fatal("servfail=1.0 injected nothing")
	}
	if fetch.ClassifyError(err) != fetch.FailDNS {
		t.Errorf("classified as %q", fetch.ClassifyError(err))
	}
	if !fetch.RetryableError(err) {
		t.Error("injected SERVFAIL should be transient/retryable")
	}
}

func TestHostOf(t *testing.T) {
	for raw, want := range map[string]string{
		"https://www.gub.uy/path": "www.gub.uy",
		"not a url":               "not a url",
	} {
		if got := hostOf(raw); got != want {
			t.Errorf("hostOf(%q) = %q, want %q", raw, got, want)
		}
	}
}
