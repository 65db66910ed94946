package core

import (
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/faults"
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
