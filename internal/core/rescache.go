package core

import (
	"fmt"
	"net/netip"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/whois"
)

// resolveFunc performs one uncached hostname→(IP, WHOIS) resolution.
type resolveFunc func(host string) (netip.Addr, whois.Record, error)

// rescache is the concurrency-safe, study-wide resolution cache: every
// country's annotation pass shares it, so annotation cost scales with
// distinct hostnames rather than crawled records. Failures are cached
// as negative entries — before this cache existed a bad hostname was
// re-resolved on every URL that referenced it.
type rescache struct {
	memo sched.Memo[string, resolution]
	// coalesced, when set, counts the lookups that waited on another
	// worker's in-flight resolution — interleaving-dependent runtime
	// data. The deterministic lookup/hit/miss/negative counts are not
	// recorded here: sharedLedger derives them from the dataset.
	coalesced *metrics.Counter
}

// resolution is one hostname's outcome, positive or negative.
type resolution struct {
	ip  netip.Addr
	rec whois.Record
	err error
}

func newRescache(coalesced *metrics.Counter) *rescache {
	return &rescache{coalesced: coalesced}
}

// resolve returns the cached outcome for host, performing the lookup
// through fn exactly once per hostname. Concurrent callers for the
// same hostname share one in-flight resolution.
func (c *rescache) resolve(host string, fn resolveFunc) (netip.Addr, whois.Record, error) {
	r, kind := c.memo.Do(host, func() resolution {
		ip, rec, err := fn(host)
		return resolution{ip, rec, err}
	})
	if kind == sched.Coalesced && c.coalesced != nil {
		c.coalesced.Inc()
	}
	return r.ip, r.rec, r.err
}

// resolveAttempts bounds the per-hostname resolution attempt sequence
// under DNS fault injection: a transient SERVFAIL is retried, up to
// this many attempts in all.
const resolveAttempts = 3

// faultyResolve wraps a resolveFunc with the plan's DNS faults: each
// attempt first consults the plan (deterministically per hostname and
// attempt), so an injected SERVFAIL can clear on a later attempt and
// the same seed always resolves — or fails — the same set of names.
func faultyResolve(plan *faults.Plan, inner resolveFunc) resolveFunc {
	return func(host string) (netip.Addr, whois.Record, error) {
		if n, err := injectedServfails(plan, host); n == resolveAttempts {
			return netip.Addr{}, whois.Record{}, err
		}
		return inner(host)
	}
}

// injectedServfails runs the plan's per-attempt DNS fault rolls for
// host: it returns how many leading attempts were SERVFAILed and the
// last injected error. The resolution goes through when n is below
// resolveAttempts. The rolls are stateless hashes of (host, attempt),
// so sharedLedger replays the count without resolving anything.
func injectedServfails(plan *faults.Plan, host string) (n int, err error) {
	for n < resolveAttempts {
		e := plan.DNSFault(host, n)
		if e == nil {
			break
		}
		n, err = n+1, e
	}
	return n, err
}

// zoneResolve is the production resolveFunc: DNS through the synthetic
// zones, then the WHOIS registry for the serving prefix.
func (env *Env) zoneResolve(host string) (netip.Addr, whois.Record, error) {
	res, err := env.Zones.Resolve(host)
	if err != nil {
		return netip.Addr{}, whois.Record{}, err
	}
	wrec, found := env.WhoisDB.Lookup(res.Addr)
	if !found {
		return netip.Addr{}, whois.Record{}, fmt.Errorf("no WHOIS record for %v", res.Addr)
	}
	return res.Addr, wrec, nil
}
