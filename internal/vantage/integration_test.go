package vantage_test

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"net/http"
	"sort"
	"testing"

	"repro/internal/crawler"
	"repro/internal/har"
	"repro/internal/netsim"
	"repro/internal/vantage"
	"repro/internal/webgen"
	"repro/internal/webserve"
	"repro/internal/world"
)

func startServer(t *testing.T) (*webserve.Server, string, *webgen.Estate) {
	t.Helper()
	w := world.New()
	net := netsim.Build(w, 42)
	profiles := world.BuildProfiles(w, 42)
	estate := webgen.Build(w, net, profiles, 42, 0.02)
	srv := &webserve.Server{Estate: estate}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, estate
}

func get(t *testing.T, addr, host, path, vantageCountry string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", "http://"+addr+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Host = host
	if vantageCountry != "" {
		req.Header.Set(webserve.VantageHeader, vantageCountry)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestServeLandingPage(t *testing.T) {
	_, addr, estate := startServer(t)
	site := estate.GovSites("UY")[0]
	resp := get(t, addr, site.Host, "/", "UY")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if int64(len(body)) != site.Pages["/"].Size {
		t.Fatalf("body %d bytes, want the page's nominal %d", len(body), site.Pages["/"].Size)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/html" {
		t.Fatalf("content type %q", got)
	}
}

func TestServeUnknownHostAndPath(t *testing.T) {
	_, addr, estate := startServer(t)
	if resp := get(t, addr, "unknown.example", "/", "US"); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("unknown host status = %d", resp.StatusCode)
	}
	site := estate.GovSites("UY")[0]
	if resp := get(t, addr, site.Host, "/definitely-missing", "UY"); resp.StatusCode != 404 {
		t.Fatalf("missing path status = %d", resp.StatusCode)
	}
}

func TestGeoBlockingOverHTTP(t *testing.T) {
	_, addr, estate := startServer(t)
	var blocked *webgen.Site
	for _, s := range estate.SiteList {
		if s.GeoBlocked && s.Country != "" {
			blocked = s
			break
		}
	}
	if blocked == nil {
		t.Skip("no geo-blocked site at this scale")
	}
	if resp := get(t, addr, blocked.Host, "/", blocked.Country); resp.StatusCode != 200 {
		t.Fatalf("domestic request blocked: %d", resp.StatusCode)
	}
	if resp := get(t, addr, blocked.Host, "/", "ZZ"); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("foreign request allowed: %d", resp.StatusCode)
	}
}

// TestHTTPCrawlMatchesMemCrawl crawls one country over real HTTP and
// over the in-memory backend and demands identical URL coverage — the
// property that lets full-scale studies use the fast path.
func TestHTTPCrawlMatchesMemCrawl(t *testing.T) {
	_, addr, estate := startServer(t)
	const country = "UY"
	landings := estate.LandingURLs[country]

	httpCrawler := &crawler.Crawler{
		Fetcher: vantage.NewHTTPFetcher(addr, country),
		Config:  crawler.Config{Concurrency: 8, Country: country},
	}
	memCrawler := &crawler.Crawler{
		Fetcher: &webgen.MemFetcher{Estate: estate, Vantage: country},
		Config:  crawler.Config{Concurrency: 8, Country: country},
	}
	ctx := context.Background()
	ha, _, err := httpCrawler.Crawl(ctx, landings)
	if err != nil {
		t.Fatal(err)
	}
	ma, _, err := memCrawler.Crawl(ctx, landings)
	if err != nil {
		t.Fatal(err)
	}
	hu, mu := urlSet(ha), urlSet(ma)
	if len(hu) != len(mu) {
		t.Fatalf("HTTP crawl found %d URLs, mem crawl %d", len(hu), len(mu))
	}
	for i := range hu {
		if hu[i] != mu[i] {
			t.Fatalf("URL sets diverge at %d: %s vs %s", i, hu[i], mu[i])
		}
	}
}

// urlSet returns the sorted distinct URLs a crawl fetched.
func urlSet(a *har.Archive) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range a.Entries {
		if !seen[e.URL] {
			seen[e.URL] = true
			out = append(out, e.URL)
		}
	}
	sort.Strings(out)
	return out
}

func TestVantageHTTPFetcherRewritesScheme(t *testing.T) {
	_, addr, estate := startServer(t)
	site := estate.GovSites("CL")[0]
	f := vantage.NewHTTPFetcher(addr, "CL")
	resp, err := f.Fetch(context.Background(), fmt.Sprintf("https://%s/", site.Host))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || resp.BodySize == 0 {
		t.Fatalf("fetch over rewritten scheme failed: %+v", resp.Status)
	}
}

// TestSANInspectionOverTLS performs the §3.3 SAN-matching step against
// a real TLS handshake: the server picks the landing site's
// certificate by SNI, and the client reads the SAN list off the wire.
func TestSANInspectionOverTLS(t *testing.T) {
	_, _, estate := startServer(t)
	srv := &webserve.Server{Estate: estate}
	tlsAddr, err := srv.StartTLS("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var landing *webgen.Site
	for _, s := range estate.GovSites("AR") {
		if s.Cert != nil && len(s.Cert.SANs) > 2 {
			landing = s
			break
		}
	}
	if landing == nil {
		for _, s := range estate.GovSites("AR") {
			if s.Cert != nil {
				landing = s
				break
			}
		}
	}
	if landing == nil {
		t.Skip("no certified landing site")
	}

	var sawSANs []string
	conn, err := tls.Dial("tcp", tlsAddr, &tls.Config{
		ServerName:         landing.Host,
		InsecureSkipVerify: true,
		VerifyPeerCertificate: func(raw [][]byte, _ [][]*x509.Certificate) error {
			c, err := x509.ParseCertificate(raw[0])
			if err != nil {
				return err
			}
			sawSANs = c.DNSNames
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()

	want := map[string]bool{}
	for _, s := range landing.Cert.SANs {
		want[s] = true
	}
	for _, s := range sawSANs {
		delete(want, s)
	}
	if len(want) != 0 {
		t.Fatalf("SANs missing from the handshake: %v", want)
	}
}

// TestTLSRequiresKnownSNI rejects handshakes for hostnames without a
// certificate, mirroring how unknown names fail in the wild.
func TestTLSRequiresKnownSNI(t *testing.T) {
	_, _, estate := startServer(t)
	srv := &webserve.Server{Estate: estate}
	tlsAddr, err := srv.StartTLS("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, err = tls.Dial("tcp", tlsAddr, &tls.Config{
		ServerName:         "no-such-host.invalid",
		InsecureSkipVerify: true,
	})
	if err == nil {
		t.Fatal("handshake for an unknown hostname succeeded")
	}
}

// TestHTTPFetcherBoundsBody: the body cap must cut an over-limit page
// at exactly MaxBodyBytes and flag the response as truncated, while an
// under-limit page passes through whole and unflagged.
func TestHTTPFetcherBoundsBody(t *testing.T) {
	_, addr, estate := startServer(t)
	site := estate.GovSites("CL")[0]
	url := fmt.Sprintf("https://%s/", site.Host)

	full := vantage.NewHTTPFetcher(addr, "CL")
	resp, err := full.Fetch(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated {
		t.Fatal("default cap truncated a landing page")
	}
	whole := resp.BodySize

	capped := vantage.NewHTTPFetcher(addr, "CL")
	capped.MaxBodyBytes = whole / 2
	resp, err = capped.Fetch(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Fatal("over-cap body not flagged Truncated")
	}
	if resp.BodySize != whole/2 || int64(len(resp.Body)) != whole/2 {
		t.Fatalf("truncated to %d bytes, want %d", resp.BodySize, whole/2)
	}

	exact := vantage.NewHTTPFetcher(addr, "CL")
	exact.MaxBodyBytes = whole
	resp, err = exact.Fetch(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || resp.BodySize != whole {
		t.Fatalf("exactly-cap-sized body misflagged: Truncated=%v size=%d", resp.Truncated, resp.BodySize)
	}
}
