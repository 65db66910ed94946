package webgen

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/world"
)

// buildUnmaterialized returns an estate whose page trees are not built
// yet.
func buildUnmaterialized(scale float64) *Estate {
	w := world.New()
	net := netsim.Build(w, 42)
	return Build(w, net, world.BuildProfiles(w, 42), 42, scale)
}

// TestLazyBuildOrderIndependent is the differential test of deferred
// page building: one estate materialized in panel order, the other in
// reverse order by several concurrent workers, must hold identical
// sites, pages, links, sizes, landing URLs and certificates.
func TestLazyBuildOrderIndependent(t *testing.T) {
	inOrder := buildUnmaterialized(0.05)
	inOrder.buildAll()

	shuffled := buildUnmaterialized(0.05)
	panel := shuffled.World.Panel()
	if built := shuffled.BuiltCountries(); len(built) != 0 {
		t.Fatalf("Build materialized %v up front", built)
	}
	const workers = 4
	sched.Workers(workers, func(w int) {
		// Each worker walks the panel backwards from its own offset and
		// enters through a different gate, so builds race every way.
		for i := len(panel) - 1; i >= 0; i-- {
			code := panel[(i+w*len(panel)/workers)%len(panel)].Code
			switch w % 3 {
			case 0:
				shuffled.BuildCountry(code)
			case 1:
				shuffled.GovSites(code)
			default:
				if sites := shuffled.ByCountry[code]; len(sites) > 0 {
					shuffled.Site(sites[len(sites)-1].Host)
				}
			}
		}
	})()

	if !reflect.DeepEqual(inOrder.LandingURLs, shuffled.LandingURLs) {
		t.Fatal("LandingURLs differ between build orders")
	}
	if !reflect.DeepEqual(inOrder.BuiltCountries(), shuffled.BuiltCountries()) {
		t.Fatalf("built countries differ: %v vs %v", inOrder.BuiltCountries(), shuffled.BuiltCountries())
	}
	if len(inOrder.SiteList) != len(shuffled.SiteList) {
		t.Fatalf("site counts differ: %d vs %d", len(inOrder.SiteList), len(shuffled.SiteList))
	}
	pages := 0
	for i, x := range inOrder.SiteList {
		y := shuffled.SiteList[i]
		if x.Host != y.Host {
			t.Fatalf("site %d: %s vs %s", i, x.Host, y.Host)
		}
		if !reflect.DeepEqual(x.Landing, y.Landing) {
			t.Fatalf("%s: landing %v vs %v", x.Host, x.Landing, y.Landing)
		}
		if !reflect.DeepEqual(x.Cert, y.Cert) {
			t.Fatalf("%s: certificate %+v vs %+v", x.Host, x.Cert, y.Cert)
		}
		if len(x.Pages) != len(y.Pages) {
			t.Fatalf("%s: %d vs %d pages", x.Host, len(x.Pages), len(y.Pages))
		}
		for path, p := range x.Pages {
			q := y.Pages[path]
			if q == nil || p.Path != q.Path || p.Depth != q.Depth || p.Size != q.Size ||
				p.ContentType != q.ContentType || !reflect.DeepEqual(p.Links, q.Links) {
				t.Fatalf("%s%s: page %+v vs %+v", x.Host, path, p, q)
			}
			pages++
		}
	}
	if pages == 0 {
		t.Fatal("no pages compared")
	}
	if !reflect.DeepEqual(inOrder.Certs.Subjects(), shuffled.Certs.Subjects()) {
		t.Fatal("certificate stores differ between build orders")
	}
}

// TestLazyBuildConcurrentReaders hammers one country through every
// gate — MemFetcher.Fetch, Site and GovSites — from many pool workers
// while another country builds. Run it under -race.
func TestLazyBuildConcurrentReaders(t *testing.T) {
	e := buildUnmaterialized(0.02)
	const country, other = "UY", "US"
	landings := e.LandingURLs[country]
	hosts := make([]string, 0, len(e.ByCountry[country]))
	for _, s := range e.ByCountry[country] {
		hosts = append(hosts, s.Host)
	}

	pool := sched.NewPool(8)
	defer pool.Close()
	wait := sched.Workers(1, func(int) { e.BuildCountry(other) })
	const n = 400
	failures := make([]string, n)
	f := &MemFetcher{Estate: e, Vantage: country}
	pool.Each(context.Background(), n, func(i int) {
		switch i % 3 {
		case 0:
			resp, err := f.Fetch(context.Background(), landings[i%len(landings)])
			if err != nil || resp.Status != 200 {
				failures[i] = "fetch " + landings[i%len(landings)]
			}
		case 1:
			if s := e.Site(hosts[i%len(hosts)]); s == nil || len(s.Pages) == 0 {
				failures[i] = "site " + hosts[i%len(hosts)]
			}
		default:
			for _, s := range e.GovSites(country) {
				if len(s.Pages) == 0 {
					failures[i] = "gov site " + s.Host
				}
			}
		}
	})
	wait()
	for _, f := range failures {
		if f != "" {
			t.Fatalf("reader saw an unbuilt country: %s", f)
		}
	}
	if got := e.BuiltCountries(); !reflect.DeepEqual(got, []string{other, country}) {
		t.Fatalf("built %v, want [%s %s]", got, other, country)
	}
}
