package core

import (
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/whois"
)

func TestRescacheSingleFlight(t *testing.T) {
	var coalesced metrics.Counter
	c := newRescache(&coalesced)
	var calls atomic.Int64
	release := make(chan struct{})
	fn := func(host string) (netip.Addr, whois.Record, error) {
		calls.Add(1)
		<-release
		return netip.MustParseAddr("192.0.2.1"), whois.Record{ASN: 64500}, nil
	}

	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ip, rec, err := c.resolve("gov.example", fn)
			if err != nil || ip != netip.MustParseAddr("192.0.2.1") || rec.ASN != 64500 {
				t.Errorf("resolve = %v, %+v, %v", ip, rec, err)
			}
		}()
	}
	// Hold the single in-flight resolution until every other worker has
	// arrived and is waiting on it, then let it finish: each waiter
	// must count as coalesced.
	deadline := time.Now().Add(5 * time.Second)
	for c.memo.Waiting() < workers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers coalesced", c.memo.Waiting(), workers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("resolver ran %d times, want 1 (single flight)", got)
	}
	if got := c.memo.Len(); got != 1 {
		t.Errorf("cache size = %d, want 1", got)
	}

	// A lookup after the entry settles is a plain hit, not a coalesce.
	c.resolve("gov.example", fn)
	if got := coalesced.Load(); got != workers-1 {
		t.Errorf("Coalesced = %d after settled hit, want %d", got, workers-1)
	}
}

func TestRescacheNegativeCaching(t *testing.T) {
	c := newRescache(nil)
	calls := 0
	boom := errors.New("NXDOMAIN")
	fn := func(host string) (netip.Addr, whois.Record, error) {
		calls++
		return netip.Addr{}, whois.Record{}, boom
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.resolve("bad.example", fn); !errors.Is(err, boom) {
			t.Fatalf("lookup %d: err = %v, want cached failure", i, err)
		}
	}
	if calls != 1 {
		t.Errorf("resolver ran %d times, want 1 (negative entry cached)", calls)
	}
	if got := c.memo.Len(); got != 1 {
		t.Errorf("cache size = %d, want 1", got)
	}
}

// TestRescacheNilMetrics: the cache must work identically with no
// registry attached — the disabled-metrics configuration.
func TestRescacheNilMetrics(t *testing.T) {
	c := newRescache(nil)
	fn := func(host string) (netip.Addr, whois.Record, error) {
		return netip.MustParseAddr("192.0.2.9"), whois.Record{}, nil
	}
	for i := 0; i < 2; i++ {
		if _, _, err := c.resolve("ok.example", fn); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.resolve("bad.example", func(string) (netip.Addr, whois.Record, error) {
		return netip.Addr{}, whois.Record{}, errors.New("nope")
	}); err == nil {
		t.Fatal("negative entry lost without metrics")
	}
	if got := c.memo.Len(); got != 2 {
		t.Errorf("size = %d, want 2", got)
	}
}

// TestFaultyResolveInjectionLedger: a hostname SERVFAILed on every
// attempt never reaches the inner resolver, and the ledger replays one
// injection per attempt it blocked.
func TestFaultyResolveInjectionLedger(t *testing.T) {
	plan := faults.NewPlan(7, faults.Profile{DNSServfail: 1.0})
	calls := 0
	inner := func(host string) (netip.Addr, whois.Record, error) {
		calls++
		return netip.MustParseAddr("192.0.2.2"), whois.Record{}, nil
	}
	wrapped := faultyResolve(plan, inner)
	if _, _, err := wrapped("always.example"); err == nil {
		t.Fatal("servfail=1.0 resolved anyway")
	}
	if calls != 0 {
		t.Errorf("inner resolver ran %d times behind a certain SERVFAIL", calls)
	}
	d := sharedLedger(&dataset.Dataset{}, []checkpoint.HostOutcome{{Host: "always.example", Lookups: 1}}, plan, true)
	if got := d.Faults.Injections[string(faults.KindServfail)]; got != resolveAttempts {
		t.Errorf("servfail injections = %d, want %d (one per attempt)", got, resolveAttempts)
	}
}
