package webgen

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/world"
)

func buildEstate(t testing.TB, scale float64) *Estate {
	t.Helper()
	w := world.New()
	net := netsim.Build(w, 42)
	profiles := world.BuildProfiles(w, 42)
	e := Build(w, net, profiles, 42, scale)
	e.buildAll()
	return e
}

func TestBuildDeterministic(t *testing.T) {
	a := buildEstate(t, 0.02)
	b := buildEstate(t, 0.02)
	if len(a.SiteList) != len(b.SiteList) {
		t.Fatalf("site counts differ: %d vs %d", len(a.SiteList), len(b.SiteList))
	}
	for i := range a.SiteList {
		x, y := a.SiteList[i], b.SiteList[i]
		if x.Host != y.Host || x.TruthCategory != y.TruthCategory ||
			x.Endpoint.Addr != y.Endpoint.Addr || len(x.Pages) != len(y.Pages) {
			t.Fatalf("site %d differs: %s vs %s", i, x.Host, y.Host)
		}
	}
}

func TestEveryPanelCountryHasAnEstate(t *testing.T) {
	e := buildEstate(t, 0.02)
	for _, c := range e.World.Panel() {
		if c.Landing == 0 {
			if len(e.GovSites(c.Code)) != 0 {
				t.Errorf("%s has sites despite an empty paper estate", c.Code)
			}
			continue
		}
		if len(e.GovSites(c.Code)) == 0 {
			t.Errorf("%s has no sites", c.Code)
		}
		if len(e.LandingURLs[c.Code]) == 0 {
			t.Errorf("%s has no landing URLs", c.Code)
		}
	}
}

func TestSitesHaveEndpointsAndCategories(t *testing.T) {
	e := buildEstate(t, 0.02)
	for _, s := range e.SiteList {
		if s.Endpoint == nil {
			t.Fatalf("site %s without endpoint", s.Host)
		}
		if s.Kind != KindContractor && s.TruthServeCountry == "" {
			t.Fatalf("site %s without serve country", s.Host)
		}
	}
}

func TestDepthDistribution(t *testing.T) {
	e := buildEstate(t, 0.1)
	var perDepth [9]int
	total := 0
	for _, s := range e.SiteList {
		if s.Kind == KindContractor || s.Kind == KindTopsite {
			continue
		}
		for _, p := range s.Pages {
			if p.Depth > 0 {
				perDepth[p.Depth]++
				total++
			}
		}
	}
	d1 := float64(perDepth[1]) / float64(total)
	if math.Abs(d1-0.84) > 0.06 {
		t.Errorf("depth-1 share = %.3f, want ≈0.84 (§4.2)", d1)
	}
	cum2 := float64(perDepth[1]+perDepth[2]) / float64(total)
	if cum2 < 0.90 {
		t.Errorf("cumulative depth ≤2 share = %.3f, want ≥0.90", cum2)
	}
	if perDepth[8] != 0 {
		t.Error("pages beyond depth 7 generated")
	}
}

func TestTreeIsConnected(t *testing.T) {
	e := buildEstate(t, 0.02)
	// Every page of a landing site must be reachable from a landing
	// page by following links (possibly across hosts for SAN-only
	// sites); spot-check one mid-size country.
	country := "PT"
	reach := map[string]bool{}
	var queue []string
	for _, l := range e.LandingURLs[country] {
		queue = append(queue, l)
		reach[l] = true
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		host := strings.TrimPrefix(u, "https://")
		path := "/"
		if i := strings.IndexByte(host, '/'); i >= 0 {
			host, path = host[:i], host[i:]
		}
		site := e.Site(host)
		if site == nil {
			continue
		}
		page := site.Pages[path]
		if page == nil {
			continue
		}
		for _, link := range page.Links {
			if !reach[link] {
				reach[link] = true
				queue = append(queue, link)
			}
		}
	}
	var orphaned int
	for _, s := range e.GovSites(country) {
		for _, path := range s.SortedPaths() {
			if !reach[s.URL(path)] && s.Pages[path].Depth > 0 {
				orphaned++
			}
		}
	}
	if orphaned > 0 {
		t.Fatalf("%d internal pages unreachable from landing pages", orphaned)
	}
}

func TestFranceServesGouvNCFromNewCaledonia(t *testing.T) {
	e := buildEstate(t, 0.02)
	site := e.Site("gouv.nc")
	if site == nil {
		t.Fatal("gouv.nc missing from the French estate")
	}
	if site.Country != "FR" || site.TruthServeCountry != "NC" {
		t.Fatalf("gouv.nc owner/location wrong: %s/%s", site.Country, site.TruthServeCountry)
	}
	if site.Endpoint.AS.ASN != 18200 {
		t.Fatalf("gouv.nc must sit on OPT (AS18200), got AS%d", site.Endpoint.AS.ASN)
	}
	// ~18 % of French URLs live on this host.
	frTotal := 0
	for _, s := range e.GovSites("FR") {
		frTotal += len(s.Pages)
	}
	share := float64(len(site.Pages)) / float64(frTotal)
	if share < 0.10 || share > 0.28 {
		t.Fatalf("gouv.nc URL share = %.3f, want ≈0.185", share)
	}
}

func TestSANOnlySitesAreDiscoverableViaCerts(t *testing.T) {
	e := buildEstate(t, 0.05)
	found := 0
	for _, s := range e.SiteList {
		if s.Kind != KindSANOnly {
			continue
		}
		found++
		if c := e.Certs.Get(s.Host); c == nil || !slices.Contains(c.SANs, s.Host) {
			t.Errorf("SAN-only site %s not present in any landing certificate", s.Host)
		}
		if strings.Contains(s.Host, "gov") || strings.Contains(s.Host, "gob") {
			t.Errorf("SAN-only site %s must carry no gov label", s.Host)
		}
	}
	if found == 0 {
		t.Fatal("no SAN-only affiliates generated")
	}
}

func TestContractorsLinkedButSeparate(t *testing.T) {
	e := buildEstate(t, 0.02)
	nContractors := 0
	for _, s := range e.SiteList {
		if s.Kind == KindContractor {
			nContractors++
			if s.Country != "" {
				t.Errorf("contractor %s claims country %s", s.Host, s.Country)
			}
		}
	}
	if nContractors == 0 {
		t.Fatal("no contractor sites")
	}
	linked := false
	for _, s := range e.GovSites("US") {
		for _, p := range s.Pages {
			for _, l := range p.Links {
				if strings.Contains(l, ".com/asset-") {
					linked = true
				}
			}
		}
	}
	if !linked {
		t.Fatal("no government page links to a contractor (the §3.3 filter would never trigger)")
	}
}

func TestTopsitesOnlyForComparisonCountries(t *testing.T) {
	e := buildEstate(t, 0.02)
	if len(e.Topsites) != len(ComparisonCountries) {
		t.Fatalf("topsites for %d countries, want %d", len(e.Topsites), len(ComparisonCountries))
	}
	for _, code := range ComparisonCountries {
		if len(e.Topsites[code]) == 0 {
			t.Errorf("no topsites for %s", code)
		}
	}
}

func TestTopsiteCNAMEAndCerts(t *testing.T) {
	e := buildEstate(t, 0.05)
	var withCNAME, total int
	for _, sites := range e.Topsites {
		for _, s := range sites {
			total++
			if s.Cert == nil {
				t.Fatalf("topsite %s without certificate", s.Host)
			}
			if s.CNAME != "" {
				withCNAME++
			}
		}
	}
	if float64(withCNAME)/float64(total) < 0.5 {
		t.Fatalf("only %d/%d topsites use CNAME fronting", withCNAME, total)
	}
}

func TestRealizedCategoryMixTracksProfile(t *testing.T) {
	e := buildEstate(t, 0.1)
	w := e.World
	profiles := world.BuildProfiles(w, 42)
	// URL-weighted truth mix per large country must track the effective
	// profile within a loose tolerance.
	for _, code := range []string{"US", "BE", "NL", "PL"} {
		c := w.MustCountry(code)
		eff := world.EffectiveMixFor(c, profiles[code])
		var got world.Mix
		var total float64
		for _, s := range e.GovSites(code) {
			n := float64(len(s.Pages))
			got[s.TruthCategory] += n
			total += n
		}
		for i := range got {
			got[i] /= total
		}
		for i := range got {
			if math.Abs(got[i]-eff[i]) > 0.15 {
				t.Errorf("%s category %d: realized %.2f vs configured %.2f", code, i, got[i], eff[i])
			}
		}
	}
}

func TestGeoBlockedSitesExist(t *testing.T) {
	e := buildEstate(t, 0.05)
	n := 0
	for _, s := range e.SiteList {
		if s.GeoBlocked {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no geo-blocked sites (footnote 1 behaviour untested otherwise)")
	}
}

func TestRenderHTMLContainsLinks(t *testing.T) {
	e := buildEstate(t, 0.02)
	var site *Site
	var page *Page
	for _, s := range e.GovSites("GB") {
		if p := s.Pages["/"]; p != nil && len(p.Links) > 0 {
			site, page = s, p
			break
		}
	}
	if site == nil {
		t.Skip("no linked root page")
	}
	body := string(RenderHTML(site, page, false))
	for _, l := range page.Links {
		if !strings.Contains(body, l) {
			t.Fatalf("rendered HTML missing link %s", l)
		}
	}
	padded := RenderHTML(site, page, true)
	if int64(len(padded)) < page.Size {
		t.Fatalf("padded render %d bytes < nominal %d", len(padded), page.Size)
	}
}

func TestMemFetcher(t *testing.T) {
	e := buildEstate(t, 0.02)
	ctx := context.Background()
	site := e.GovSites("CA")[0]
	f := &MemFetcher{Estate: e, Vantage: "CA"}
	resp, err := f.Fetch(ctx, site.URL("/"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || resp.BodySize != site.Pages["/"].Size {
		t.Fatalf("fetch = %d/%d", resp.Status, resp.BodySize)
	}
	if _, err := f.Fetch(ctx, "https://nonexistent.test/"); err == nil {
		t.Fatal("unknown host must error (DNS failure analogue)")
	}
	if resp, _ := f.Fetch(ctx, site.URL("/missing")); resp.Status != 404 {
		t.Fatalf("missing path status = %d, want 404", resp.Status)
	}
}

func TestMemFetcherGeoBlocking(t *testing.T) {
	e := buildEstate(t, 0.05)
	var blocked *Site
	for _, s := range e.SiteList {
		if s.GeoBlocked && s.Country != "" {
			blocked = s
			break
		}
	}
	if blocked == nil {
		t.Skip("no geo-blocked site in sample")
	}
	ctx := context.Background()
	home := &MemFetcher{Estate: e, Vantage: blocked.Country}
	foreign := &MemFetcher{Estate: e, Vantage: "ZZ"}
	if resp, err := home.Fetch(ctx, blocked.URL("/")); err != nil || resp.Status != 200 {
		t.Fatalf("domestic access blocked: %v %v", resp, err)
	}
	if resp, err := foreign.Fetch(ctx, blocked.URL("/")); err != nil || resp.Status != 403 {
		t.Fatalf("foreign access not blocked: %v %v", resp, err)
	}
}

func TestScaleControlsSize(t *testing.T) {
	small := buildEstate(t, 0.02)
	big := buildEstate(t, 0.05)
	if big.totalPages() <= small.totalPages() {
		t.Fatalf("scale has no effect: %d vs %d pages", small.totalPages(), big.totalPages())
	}
}

// buildAll builds every country in panel order.
func (e *Estate) buildAll() {
	for _, c := range e.World.Panel() {
		e.BuildCountry(c.Code)
	}
}

// totalPages counts pages across all sites, building every country.
func (e *Estate) totalPages() int {
	e.buildAll()
	n := 0
	for _, s := range e.SiteList {
		n += len(s.Pages)
	}
	return n
}

func TestHTTPSValidityTracksDevelopment(t *testing.T) {
	e := buildEstate(t, 0.1)
	validShare := func(code string) float64 {
		var valid, n float64
		for _, s := range e.GovSites(code) {
			if s.Kind == KindSANOnly {
				continue
			}
			n++
			if s.HTTPSValid {
				valid++
			}
		}
		return valid / n
	}
	// Denmark (EGDI 0.972) must beat Pakistan (EGDI 0.424) comfortably.
	if validShare("DK") <= validShare("PK") {
		t.Fatalf("HTTPS validity inverted: DK %.2f vs PK %.2f", validShare("DK"), validShare("PK"))
	}
}

func TestPageWeightFactorDirection(t *testing.T) {
	w := world.New()
	heavy := pageWeightFactor(w.MustCountry("PK")) // HDI 0.544
	light := pageWeightFactor(w.MustCountry("CH")) // HDI 0.962
	if heavy <= light {
		t.Fatalf("page-weight factor inverted: PK %.2f vs CH %.2f", heavy, light)
	}
	if light < 0.5 || heavy > 1.5 {
		t.Fatalf("factors out of band: %.2f / %.2f", light, heavy)
	}
}

func TestCertValidityMatchesSiteFlag(t *testing.T) {
	e := buildEstate(t, 0.05)
	for _, s := range e.SiteList {
		if s.Cert == nil {
			continue
		}
		if s.Cert.Valid != s.HTTPSValid {
			t.Fatalf("site %s: cert.Valid=%v but site.HTTPSValid=%v", s.Host, s.Cert.Valid, s.HTTPSValid)
		}
		if !s.Cert.Valid && s.Cert.Invalid == "" && s.Kind != KindTopsite {
			t.Fatalf("invalid cert without a reason: %s", s.Host)
		}
	}
}
