package core

import (
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/govclass"
	"repro/internal/metrics"
	"repro/internal/probing"
)

// TestSharedLedger pins sharedLedger's attribution rules case by case:
// first lookup of a key is the miss, failed hostnames and UR/EX
// verdicts are negative entries, anycast verdicts are keyed per
// vantage, SERVFAILs replay once per distinct hostname, and gov and
// topsite lookups share one cache.
func TestSharedLedger(t *testing.T) {
	ip1 := netip.MustParseAddr("192.0.2.1")
	ip2 := netip.MustParseAddr("192.0.2.2")
	rec := func(host, country string, ip netip.Addr, anycast bool, m probing.Method) dataset.URLRecord {
		return dataset.URLRecord{Host: host, Country: country, IP: ip, Anycast: anycast, GeoMethod: string(m)}
	}
	ap := probing.MethodAP
	servfail := faults.NewPlan(7, faults.Profile{DNSServfail: 1.0})

	cases := []struct {
		name     string
		records  []dataset.URLRecord
		topsites []dataset.URLRecord
		failed   []checkpoint.HostOutcome
		plan     *faults.Plan
		geo      bool
		want     metrics.Deterministic
	}{
		{
			name: "one miss then hits",
			records: []dataset.URLRecord{
				rec("a.example", "US", ip1, false, ap), rec("a.example", "US", ip1, false, ap),
				rec("a.example", "UY", ip1, false, ap), rec("a.example", "UY", ip1, false, ap),
			},
			geo: true,
			want: metrics.Deterministic{
				Cache: metrics.CacheCounters{Lookups: 4, Hits: 3, Misses: 1},
				Geo:   metrics.GeoCounters{Unicast: metrics.CacheCounters{Lookups: 4, Hits: 3, Misses: 1}},
			},
		},
		{
			name: "negative entry and its negative hits",
			// The same failed host from two countries is one entry.
			failed: []checkpoint.HostOutcome{{Host: "bad.example", Lookups: 2}, {Host: "bad.example", Lookups: 1}},
			geo:    true,
			want: metrics.Deterministic{
				Cache: metrics.CacheCounters{Lookups: 3, Hits: 2, Misses: 1, NegativeEntries: 1, NegativeHits: 2},
			},
		},
		{
			name: "negative verdict",
			records: []dataset.URLRecord{
				rec("a.example", "US", ip1, false, probing.MethodUnresolved),
				rec("b.example", "US", ip1, false, probing.MethodUnresolved),
				rec("c.example", "US", ip2, false, probing.MethodExcluded),
			},
			geo: true,
			want: metrics.Deterministic{
				Cache: metrics.CacheCounters{Lookups: 3, Misses: 3},
				Geo: metrics.GeoCounters{Unicast: metrics.CacheCounters{
					Lookups: 3, Hits: 1, Misses: 2, NegativeEntries: 2, NegativeHits: 1}},
			},
		},
		{
			name:    "servfail replays once per distinct host",
			records: []dataset.URLRecord{rec("a.example", "US", ip1, false, ap), rec("a.example", "US", ip1, false, ap)},
			failed:  []checkpoint.HostOutcome{{Host: "bad.example", Lookups: 2}},
			plan:    servfail,
			want: metrics.Deterministic{
				Cache:  metrics.CacheCounters{Lookups: 4, Hits: 2, Misses: 2, NegativeEntries: 1, NegativeHits: 1},
				Faults: metrics.FaultCounters{Injections: map[string]int64{"servfail": 2 * resolveAttempts}},
			},
		},
		{
			name: "anycast keyed per vantage",
			records: []dataset.URLRecord{
				rec("cdn.example", "US", ip1, true, ap), rec("cdn.example", "US", ip1, true, ap),
				rec("cdn.example", "UY", ip1, true, probing.MethodUnresolved),
			},
			geo: true,
			want: metrics.Deterministic{
				Cache: metrics.CacheCounters{Lookups: 3, Hits: 2, Misses: 1},
				Geo: metrics.GeoCounters{Anycast: metrics.CacheCounters{
					Lookups: 3, Hits: 1, Misses: 2, NegativeEntries: 1}},
			},
		},
		{
			name:     "host shared by a gov record and a topsite record",
			records:  []dataset.URLRecord{rec("shared.example", "US", ip1, false, ap)},
			topsites: []dataset.URLRecord{rec("shared.example", "US", ip1, false, ap)},
			geo:      true,
			want: metrics.Deterministic{
				Cache: metrics.CacheCounters{Lookups: 2, Hits: 1, Misses: 1},
				Geo:   metrics.GeoCounters{Unicast: metrics.CacheCounters{Lookups: 2, Hits: 1, Misses: 1}},
			},
		},
		{
			name:     "topsite-only failure",
			records:  []dataset.URLRecord{rec("gov.example", "US", ip1, false, ap)},
			topsites: []dataset.URLRecord{rec("top.example", "US", ip2, false, ap)},
			failed:   []checkpoint.HostOutcome{{Host: "down.example", Lookups: 1}},
			geo:      true,
			want: metrics.Deterministic{
				Cache: metrics.CacheCounters{Lookups: 3, Misses: 3, NegativeEntries: 1},
				Geo:   metrics.GeoCounters{Unicast: metrics.CacheCounters{Lookups: 2, Misses: 2}},
			},
		},
		{
			name:    "trusted IPInfo consults no verdict cache",
			records: []dataset.URLRecord{rec("a.example", "US", ip1, false, "IPINFO"), rec("b.example", "US", ip1, true, "IPINFO")},
			want: metrics.Deterministic{
				Cache: metrics.CacheCounters{Lookups: 2, Misses: 2},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := &dataset.Dataset{Records: tc.records, Topsites: tc.topsites}
			got := sharedLedger(ds, tc.failed, tc.plan, tc.geo)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("sharedLedger =\n%+v\nwant\n%+v", got, tc.want)
			}
		})
	}
}

// TestStudyLedger pins studyLedger on a hand-built study: a crawled
// country with a truncated frontier and a failed lookup, a country
// whose vantage failed after injected egress flaps, a transient
// failure row, and topsite crawls whose failed lookups are annotations
// but not scheduler items.
func TestStudyLedger(t *testing.T) {
	ip := netip.MustParseAddr("192.0.2.1")
	ds := &dataset.Dataset{
		Records: []dataset.URLRecord{
			{Host: "a.us", Country: "US", IP: ip},
			{Host: "b.us", Country: "US", IP: ip},
		},
		Topsites: []dataset.URLRecord{{Host: "top.example", Country: "US", IP: ip}},
	}
	countries := []*countryDone{
		{
			code:  "NG",
			stats: &dataset.CountryStats{Country: "NG", Failed: true, VantageAttempts: 3},
			tally: metrics.CrawlTally{Injections: map[string]int64{"flap": 2}},
		},
		{
			code: "US",
			stats: &dataset.CountryStats{
				Country: "US", Attempted: 6, FailedURLs: 2,
				Failures: map[string]int{"timeout": 1, "dns": 1}, Retries: 3, VantageAttempts: 1,
			},
			methods: map[govclass.URLMethod]int{govclass.MethodDiscarded: 1, govclass.MethodTLD: 2},
			failed:  []checkpoint.HostOutcome{{Host: "bad.us", Lookups: 1}},
			tally: metrics.CrawlTally{
				URLsByDepth:       []int64{2, 4},
				FrontierTruncated: 5,
				RetriesByKind:     map[string]int64{"timeout": 3},
				Injections:        map[string]int64{"timeout": 4},
			},
		},
		{code: "ZZ", stats: &dataset.CountryStats{Country: "ZZ", Failed: true}},
	}
	topFailed := []checkpoint.HostOutcome{{Host: "down.example", Lookups: 1}}
	topTallies := []metrics.CrawlTally{{URLsByDepth: []int64{1, 2}, RetriesByKind: map[string]int64{"reset": 1}}}

	got := studyLedger(ds, countries, topFailed, topTallies, nil, false)
	want := metrics.Deterministic{
		// 9 admitted URLs plus US's 3 annotations (2 records, 1 failed
		// lookup); topsite annotations are not scheduler items.
		Sched:  metrics.SchedCounters{ItemsScheduled: 12, ItemsRun: 12},
		Cache:  metrics.CacheCounters{Lookups: 5, Misses: 5, NegativeEntries: 2},
		Fetch:  metrics.FetchCounters{Attempts: 13, Retries: 4, RetriesByKind: map[string]int64{"timeout": 3, "reset": 1}},
		Faults: metrics.FaultCounters{Injections: map[string]int64{"timeout": 4, "flap": 2}},
		Crawl:  metrics.CrawlCounters{FrontierAdmitted: 9, FrontierTruncated: 5, URLsByDepth: []int64{3, 6}},
		Pipeline: metrics.PipelineCounters{
			Annotations: 5, Records: 2, Failures: 2,
			FailuresByKind:  map[string]int64{"timeout": 1, "dns": 1},
			CountriesRun:    3,
			CountriesFailed: 2,
			Countries: map[string]metrics.CountryCounters{
				"NG": {VantageAttempts: 3},
				"US": {Attempted: 6, Records: 2, Failures: 2, Discarded: 1, Unusable: 1, Retries: 3, VantageAttempts: 1},
				"ZZ": {},
			},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("studyLedger =\n%+v\nwant\n%+v", got, want)
	}
}
