package core

import (
	"net/netip"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/govclass"
	"repro/internal/metrics"
	"repro/internal/probing"
)

// studyLedger computes the deterministic half of the metrics snapshot,
// once, from the assembled study: the dataset, every assembled country
// (fresh, loaded from a checkpoint, or a transient failure row) and the
// topsite crawls' failed resolutions and tally rows. Nothing counts
// these numbers live, so a fresh run, a resumed run, a shard worker and
// a shard assembly derive the same ledger from the same study.
//
// Per country, Attempted, Failures, Retries and VantageAttempts are
// the stats row's, Records is the country's record count, Discarded
// its discarded classifications, and Unusable closes the accounting
// identity. Every annotation is a record or a failed lookup; a
// country's annotations run on the scheduler as one item each, as do
// the fetches of every admitted URL, while topsite annotations run in
// a plain loop. The crawl tally rows supply the rest (metrics.AddCrawl).
func studyLedger(ds *dataset.Dataset, countries []*countryDone, topFailed []checkpoint.HostOutcome, topTallies []metrics.CrawlTally, plan *faults.Plan, geo bool) metrics.Deterministic {
	failed := slices.Clone(topFailed)
	for _, c := range countries {
		failed = append(failed, c.failed...)
	}
	d := sharedLedger(ds, failed, plan, geo)

	records := map[string]int64{}
	for i := range ds.Records {
		records[ds.Records[i].Country]++
	}
	p := &d.Pipeline
	for _, c := range countries {
		st := c.stats
		row := metrics.CountryCounters{
			Attempted:       int64(st.Attempted),
			Records:         records[c.code],
			Failures:        int64(st.FailedURLs),
			Discarded:       int64(c.methods[govclass.MethodDiscarded]),
			Retries:         int64(st.Retries),
			VantageAttempts: int64(st.VantageAttempts),
		}
		row.Unusable = row.Attempted - row.Records - row.Failures - row.Discarded
		if p.Countries == nil {
			p.Countries = map[string]metrics.CountryCounters{}
		}
		p.Countries[c.code] = row
		p.CountriesRun++
		if st.Failed {
			p.CountriesFailed++
		}
		p.Records += row.Records
		p.Failures += row.Failures
		//lint:ignore map-order -- per-kind sums commute, and JSON renders the kinds sorted
		for kind, n := range st.Failures {
			metrics.AddLabel(&p.FailuresByKind, kind, int64(n))
		}
		annotations := row.Records
		for _, h := range c.failed {
			annotations += h.Lookups
		}
		p.Annotations += annotations
		d.Sched.ItemsScheduled += annotations
		d.Sched.ItemsRun += annotations
		d.AddCrawl(c.tally)
	}
	p.Annotations += int64(len(ds.Topsites))
	for _, h := range topFailed {
		p.Annotations += h.Lookups
	}
	for _, t := range topTallies {
		d.AddCrawl(t)
	}
	return d
}

// sharedLedger derives studyLedger's counters of the study-wide
// caches — hostname resolution, unicast and anycast geolocation — and
// the SERVFAILs the DNS fault layer injected, from the assembled
// dataset. The caches themselves record nothing deterministic, so
// every run counts the same way, whichever process actually filled
// each entry.
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
