package core

import (
	"net/netip"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/probing"
)

// sharedLedger derives the deterministic counters of the study-wide
// caches — hostname resolution, unicast and anycast geolocation — and
// the SERVFAILs the DNS fault layer injected, from the assembled
// dataset. It is the only place those counters are decided: the caches
// themselves record nothing deterministic, so a fresh run, a resumed
// run, a shard worker and a shard assembly all count the same way,
// whichever process actually filled each entry.
//
// The attribution follows from the caches being single-flight and
// study-wide:
//   - every record is one resolution lookup and one verdict lookup,
//     and failed lists the lookups whose resolution failed (those
//     produced no record) — a hostname may appear more than once;
//   - the first lookup of a key is its miss and every later one a hit,
//     so misses count distinct keys and hits the rest;
//   - a failed hostname is a negative entry, as is a UR/EX verdict;
//   - unicast verdicts are keyed by address, anycast verdicts by
//     (vantage country, address);
//   - each distinct hostname was resolved once, through plan's attempt
//     sequence, so its SERVFAILs replay exactly.
//
// plan may be nil (no DNS faults); geo is false when the study trusted
// IPInfo and never consulted the verdict caches. Counter sums commute,
// so the result does not depend on the order of records or failures.
func sharedLedger(ds *dataset.Dataset, failed []checkpoint.HostOutcome, plan *faults.Plan, geo bool) metrics.Deterministic {
	var d metrics.Deterministic
	var servfails int64
	hosts := map[string]bool{}
	resolve := func(host string, n int64, negative bool) {
		if plan != nil && !hosts[host] {
			k, _ := injectedServfails(plan, host)
			servfails += int64(k)
		}
		lookup(&d.Cache, hosts, host, n, negative)
	}
	uni := map[netip.Addr]bool{}
	anyc := map[anycastKey]bool{}
	for _, set := range [][]dataset.URLRecord{ds.Records, ds.Topsites} {
		for i := range set {
			r := &set[i]
			resolve(r.Host, 1, false)
			if !geo {
				continue
			}
			negative := probing.Method(r.GeoMethod).Negative()
			if r.Anycast {
				lookup(&d.Geo.Anycast, anyc, anycastKey{r.Country, r.IP}, 1, negative)
			} else {
				lookup(&d.Geo.Unicast, uni, r.IP, 1, negative)
			}
		}
	}
	for _, h := range failed {
		resolve(h.Host, h.Lookups, true)
	}
	if servfails > 0 {
		d.Faults.Injections = map[string]int64{string(faults.KindServfail): servfails}
	}
	return d
}

// anycastKey keys the anycast verdict cache: anycast verification
// depends on the vantage, so the key mirrors the prober's.
type anycastKey struct {
	vantage string
	addr    netip.Addr
}

// lookup folds n lookups of key into c: the first lookup of a key
// ever seen is a miss (a negative entry when the outcome is negative),
// every other one a hit.
func lookup[K comparable](c *metrics.CacheCounters, seen map[K]bool, key K, n int64, negative bool) {
	c.Lookups += n
	hits := n
	if !seen[key] {
		seen[key] = true
		c.Misses++
		hits--
		if negative {
			c.NegativeEntries++
		}
	}
	c.Hits += hits
	if negative {
		c.NegativeHits += hits
	}
}
