package dnswire

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"time"
)

// Resolver is a caching stub resolver on top of Exchange: it follows
// CNAME chains in the answer section, caches positive and negative
// answers with TTL, deduplicates concurrent queries for the same name
// (singleflight) and retries over transient failures. The measurement
// pipeline resolves thousands of hostnames per vantage, so cache and
// coalescing behaviour matter.
type Resolver struct {
	// Server is the "host:port" of the upstream DNS server.
	Server string
	// Timeout bounds one exchange; defaults to 3 s.
	Timeout time.Duration
	// Retries is the number of additional attempts after a failed
	// exchange; defaults to 2.
	Retries int
	// MaxTTL caps cache lifetimes; defaults to 5 minutes.
	MaxTTL time.Duration
	// NegativeTTL is the cache lifetime of NXDOMAIN answers; defaults
	// to 30 s.
	NegativeTTL time.Duration
	// FaultHook, when set, is consulted before each exchange attempt
	// and its non-nil error stands in for the exchange (chaos runs
	// inject SERVFAIL here via faults.Plan.DNSFault). Errors from
	// the hook count against the same retry allowance as real
	// failures, so an injected fault on attempt 0 can still resolve on
	// attempt 1.
	FaultHook func(name string, attempt int) error
	// now allows tests to control time.
	now func() time.Time

	mu       sync.Mutex
	cache    map[string]cacheEntry
	inflight map[string]*call
	ids      rand.Source

	// Stats counters (monotonic, read via Stats).
	hits, misses, coalesced uint64
}

type cacheEntry struct {
	result  Result
	err     error
	expires time.Time
}

type call struct {
	done chan struct{}
	res  Result
	err  error
}

// Result is a completed resolution.
type Result struct {
	Name  string
	Addr  netip.Addr
	Chain []string // CNAME targets traversed, in order
	TTL   time.Duration
}

// ResolverStats reports cache behaviour.
type ResolverStats struct {
	Hits, Misses, Coalesced uint64
}

// NewResolver builds a resolver for the given upstream.
func NewResolver(server string) *Resolver {
	return &Resolver{Server: server}
}

// clock is the resolver's only wall-clock read: TTL expiry and the
// query-ID seed both derive from it, so injecting now() makes the
// whole resolver deterministic.
//
//lint:ignore determinism-taint -- wall-clock fallback when no clock is injected; deterministic studies and tests inject now()
func (r *Resolver) clock() time.Time {
	if r.now != nil {
		return r.now()
	}
	return time.Now()
}

func (r *Resolver) timeout() time.Duration {
	if r.Timeout > 0 {
		return r.Timeout
	}
	return 3 * time.Second
}

func (r *Resolver) maxTTL() time.Duration {
	if r.MaxTTL > 0 {
		return r.MaxTTL
	}
	return 5 * time.Minute
}

func (r *Resolver) negTTL() time.Duration {
	if r.NegativeTTL > 0 {
		return r.NegativeTTL
	}
	return 30 * time.Second
}

// NXDomainError reports a name that does not exist.
type NXDomainError struct{ Name string }

func (e *NXDomainError) Error() string { return fmt.Sprintf("dnswire: NXDOMAIN %s", e.Name) }

// LookupA resolves name to an IPv4 address, following CNAMEs.
func (r *Resolver) LookupA(ctx context.Context, name string) (Result, error) {
	key := CanonicalName(name)

	r.mu.Lock()
	if r.cache == nil {
		r.cache = make(map[string]cacheEntry)
		r.inflight = make(map[string]*call)
		r.ids = rand.NewSource(r.clock().UnixNano())
	}
	if e, ok := r.cache[key]; ok && r.clock().Before(e.expires) {
		r.hits++
		r.mu.Unlock()
		return e.result, e.err
	}
	if c, ok := r.inflight[key]; ok {
		r.coalesced++
		r.mu.Unlock()
		select {
		case <-c.done:
			return c.res, c.err
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	r.misses++
	c := &call{done: make(chan struct{})}
	r.inflight[key] = c
	id := uint16(r.ids.Int63())
	r.mu.Unlock()

	res, ttl, err := r.query(ctx, key, id)

	r.mu.Lock()
	delete(r.inflight, key)
	exp := r.clock()
	switch {
	case err == nil:
		exp = exp.Add(min(ttl, r.maxTTL()))
	default:
		if _, nx := err.(*NXDomainError); nx {
			exp = exp.Add(r.negTTL())
		} // transient errors are not cached: expires stays in the past
	}
	if err == nil || isNX(err) {
		r.cache[key] = cacheEntry{result: res, err: err, expires: exp}
	}
	c.res, c.err = res, err
	close(c.done)
	r.mu.Unlock()
	return res, err
}

func isNX(err error) bool {
	_, ok := err.(*NXDomainError)
	return ok
}

func (r *Resolver) query(ctx context.Context, name string, id uint16) (Result, time.Duration, error) {
	attempts := r.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if r.FaultHook != nil {
			if err := r.FaultHook(name, i); err != nil {
				lastErr = err
				continue
			}
		}
		//lint:ignore context-cancel -- per-attempt query context; cancel() runs unconditionally on the next line, a defer would pile timers up across the retry loop
		qctx, cancel := context.WithTimeout(ctx, r.timeout())
		resp, err := Exchange(qctx, r.Server, NewQuery(id+uint16(i), name, TypeA))
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		switch resp.Header.RCode {
		case RCodeSuccess:
			return r.extract(name, resp)
		case RCodeNXDomain:
			return Result{Name: name}, 0, &NXDomainError{Name: name}
		default:
			lastErr = fmt.Errorf("dnswire: upstream returned %v for %s", resp.Header.RCode, name)
		}
	}
	return Result{Name: name}, 0, lastErr
}

// extract walks the answer section: CNAME hops from the query name to
// the terminal A record.
func (r *Resolver) extract(name string, resp *Message) (Result, time.Duration, error) {
	res := Result{Name: name}
	ttl := r.maxTTL()
	cur := name
	byName := map[string][]RR{}
	for _, rr := range resp.Answers {
		byName[CanonicalName(rr.Name)] = append(byName[CanonicalName(rr.Name)], rr)
	}
	for hop := 0; hop < 8; hop++ {
		rrs := byName[cur]
		for _, rr := range rrs {
			switch rr.Type {
			case TypeA:
				res.Addr = rr.A
				if d := time.Duration(rr.TTL) * time.Second; d < ttl {
					ttl = d
				}
				res.TTL = ttl
				return res, ttl, nil
			case TypeCNAME:
				res.Chain = append(res.Chain, rr.Target)
				if d := time.Duration(rr.TTL) * time.Second; d < ttl {
					ttl = d
				}
			}
		}
		if len(res.Chain) <= hop {
			break // no further hop available
		}
		cur = CanonicalName(res.Chain[hop])
	}
	return res, 0, fmt.Errorf("dnswire: no A record for %s in answer", name)
}

// Stats returns cumulative cache statistics.
func (r *Resolver) Stats() ResolverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ResolverStats{Hits: r.hits, Misses: r.misses, Coalesced: r.coalesced}
}

// Flush empties the cache.
func (r *Resolver) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache = make(map[string]cacheEntry)
}

func min(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
