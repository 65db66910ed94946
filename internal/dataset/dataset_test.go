package dataset

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
)

func TestRecordPredicates(t *testing.T) {
	r := URLRecord{Country: "UY", RegCountry: "UY", ServeCountry: "UY"}
	if !r.Domestic() || !r.RegDomestic() {
		t.Fatal("domestic record misclassified")
	}
	r.ServeCountry = "US"
	if r.Domestic() {
		t.Fatal("foreign-served record called domestic")
	}
	r.ServeCountry = ""
	if r.Domestic() {
		t.Fatal("unresolved geolocation must not count as domestic")
	}
	r.RegCountry = ""
	if r.RegDomestic() {
		t.Fatal("missing registration must not count as domestic")
	}
}

// TestFillTotalsCountsDistinctValues: FillTotals skips the set inserts
// of a record whose serving tuple repeats the previous record's; its
// totals must still equal a plain count of distinct values, from any
// input order, and a second call must change nothing.
func TestFillTotalsCountsDistinctValues(t *testing.T) {
	ip := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}) }
	var recs []URLRecord
	for i := 0; i < 60; i++ {
		recs = append(recs, URLRecord{
			URL:          fmt.Sprintf("https://h%d/p%d", i%7, i%23),
			Host:         fmt.Sprintf("h%d", i%7),
			Country:      []string{"UY", "DE"}[i%2],
			IP:           ip(i % 5),
			ASN:          i % 4,
			GovAS:        i%6 == 0,
			Anycast:      i%9 == 0,
			ServeCountry: []string{"", "US", "UY"}[i%3],
		})
	}
	urls, hosts, ips, anycast := map[string]bool{}, map[string]bool{}, map[netip.Addr]bool{}, map[netip.Addr]bool{}
	asns, gov, serve := map[int]bool{}, map[int]bool{}, map[string]bool{}
	for _, r := range recs {
		urls[r.URL], hosts[r.Host], ips[r.IP], asns[r.ASN] = true, true, true, true
		if r.GovAS {
			gov[r.ASN] = true
		}
		if r.Anycast {
			anycast[r.IP] = true
		}
		if r.ServeCountry != "" {
			serve[r.ServeCountry] = true
		}
	}
	want := [...]int{len(urls), len(hosts), len(ips), len(anycast), len(asns), len(gov), len(serve)}
	for seed := int64(0); seed < 3; seed++ {
		ds := &Dataset{Records: append([]URLRecord(nil), recs...)}
		rand.New(rand.NewSource(seed)).Shuffle(len(ds.Records), func(i, j int) {
			ds.Records[i], ds.Records[j] = ds.Records[j], ds.Records[i]
		})
		for pass := 0; pass < 2; pass++ {
			ds.FillTotals()
			got := [...]int{ds.TotalUniqueURLs, ds.TotalHostnames, ds.UniqueIPs, ds.AnycastIPs, ds.ASes, ds.GovASes, ds.ServerCountries}
			if got != want {
				t.Fatalf("seed %d pass %d: totals %v, want %v", seed, pass, got, want)
			}
		}
	}
}
