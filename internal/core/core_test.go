package core

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/govclass"
	"repro/internal/har"
	"repro/internal/whois"
	"repro/internal/world"
)

// runSubset executes the pipeline for a handful of countries at a
// small scale; the subset covers every region.
func runSubset(t testing.TB, cfg Config) *dataset.Dataset {
	t.Helper()
	if cfg.Scale == 0 {
		cfg.Scale = 0.03
	}
	if len(cfg.Countries) == 0 {
		cfg.Countries = []string{"US", "MX", "DE", "UY", "IN", "JP", "NG", "EG", "FR"}
	}
	ds, err := NewEnv(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPipelineProducesAnnotatedRecords(t *testing.T) {
	ds := runSubset(t, Config{})
	if len(ds.Records) == 0 {
		t.Fatal("no records")
	}
	for i := range ds.Records {
		r := &ds.Records[i]
		if r.URL == "" || r.Host == "" || r.Country == "" {
			t.Fatalf("incomplete identity: %+v", r)
		}
		if !r.IP.IsValid() || r.ASN == 0 || r.Org == "" || r.RegCountry == "" {
			t.Fatalf("incomplete infrastructure annotation (Table 2 fields): %+v", r)
		}
		if r.Method == "" || r.Method == string(govclass.MethodDiscarded) {
			t.Fatalf("record with bad classification method: %+v", r)
		}
		if r.Bytes <= 0 {
			t.Fatalf("record without bytes: %+v", r)
		}
	}
}

func TestPipelineDiscardsContractors(t *testing.T) {
	ds := runSubset(t, Config{})
	if ds.Discarded == 0 {
		t.Fatal("no URLs discarded; the §3.3 filter never fired")
	}
	for i := range ds.Records {
		if strings.Contains(ds.Records[i].Host, "websolutions") ||
			strings.Contains(ds.Records[i].Host, "trackmetrics") {
			t.Fatalf("contractor leaked into the dataset: %s", ds.Records[i].Host)
		}
	}
}

func TestPipelineMethodYields(t *testing.T) {
	ds := runSubset(t, Config{})
	if ds.MethodTLD == 0 || ds.MethodDomain == 0 {
		t.Fatalf("method yields degenerate: tld=%d domain=%d", ds.MethodTLD, ds.MethodDomain)
	}
	total := ds.MethodTLD + ds.MethodDomain + ds.MethodSAN
	domainShare := float64(ds.MethodDomain) / float64(total)
	if domainShare < 0.3 || domainShare > 0.95 {
		t.Fatalf("domain-matching share %.2f outside plausible band", domainShare)
	}
}

func TestPipelineSANDiscovery(t *testing.T) {
	ds := runSubset(t, Config{Scale: 0.05})
	if ds.MethodSAN == 0 {
		t.Fatal("no SAN-discovered URLs; the Table 1 third step never fired")
	}
	off, err := NewEnv(Config{Scale: 0.05, DisableSAN: true,
		Countries: []string{"US", "MX", "DE", "UY", "IN", "JP", "NG", "EG", "FR"}}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if off.MethodSAN != 0 {
		t.Fatalf("DisableSAN still classified %d URLs via SANs", off.MethodSAN)
	}
}

func TestPipelineDeterministic(t *testing.T) {
	a := runSubset(t, Config{})
	b := runSubset(t, Config{})
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		x, y := &a.Records[i], &b.Records[i]
		if x.URL != y.URL || x.IP != y.IP || x.Category != y.Category ||
			x.ServeCountry != y.ServeCountry || x.GeoMethod != y.GeoMethod {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, x, y)
		}
	}
}

func TestPipelineSeedChangesOutput(t *testing.T) {
	a := runSubset(t, Config{Seed: 42})
	b := runSubset(t, Config{Seed: 43})
	if len(a.Records) == len(b.Records) {
		same := true
		for i := range a.Records {
			if a.Records[i].IP != b.Records[i].IP {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical studies")
		}
	}
}

func TestCategoriesConsistentWithEvidence(t *testing.T) {
	ds := runSubset(t, Config{})
	for i := range ds.Records {
		r := &ds.Records[i]
		switch r.Category {
		case world.CatGovtSOE:
			if !r.GovAS {
				t.Fatalf("Govt&SOE record on a non-government AS: %+v", r)
			}
		case world.Cat3PLocal:
			if r.RegCountry != r.Country {
				t.Fatalf("3P Local record with foreign registration: %+v", r)
			}
			if r.GovAS {
				t.Fatalf("3P Local record on a government AS: %+v", r)
			}
		case world.Cat3PRegional:
			if r.RegCountry == r.Country || r.GovAS {
				t.Fatalf("3P Regional record inconsistent: %+v", r)
			}
		}
	}
}

func TestUruguayMatchesPaperExample(t *testing.T) {
	ds := runSubset(t, Config{})
	// Table 2's example: a Uruguayan government URL on ANTEL with
	// domestic registration and geolocation.
	for i := range ds.Records {
		r := &ds.Records[i]
		if r.Country == "UY" && r.ASN == 6057 {
			if r.RegCountry != "UY" {
				t.Fatalf("ANTEL registered in %s", r.RegCountry)
			}
			if r.ServeCountry != "" && r.ServeCountry != "UY" {
				t.Fatalf("ANTEL-hosted URL served from %s", r.ServeCountry)
			}
			return
		}
	}
	t.Skip("no ANTEL-hosted URL at this scale")
}

func TestFranceNewCaledoniaDependency(t *testing.T) {
	ds := runSubset(t, Config{Scale: 0.05})
	var fr, nc int
	for i := range ds.Records {
		r := &ds.Records[i]
		if r.Country != "FR" || r.ServeCountry == "" {
			continue
		}
		fr++
		if r.ServeCountry == "NC" {
			nc++
			if r.Host != "gouv.nc" {
				t.Fatalf("NC-served French URL on unexpected host %s", r.Host)
			}
		}
	}
	if fr == 0 {
		t.Fatal("no French records")
	}
	share := float64(nc) / float64(fr)
	if share < 0.08 || share > 0.35 {
		t.Fatalf("FR→NC share = %.3f, want ≈0.18 (§6.3)", share)
	}
}

func TestTopsitesCollectedOnlyForComparisonSubset(t *testing.T) {
	ds := runSubset(t, Config{})
	if len(ds.Topsites) == 0 {
		t.Fatal("no top-site records")
	}
	allowed := map[string]bool{"US": true, "MX": true, "FR": true, "IN": true, "JP": true, "EG": true}
	for i := range ds.Topsites {
		r := &ds.Topsites[i]
		if !allowed[r.Country] {
			t.Fatalf("top-site record for %s, outside configured∩Table-6", r.Country)
		}
		if r.Depth > 1 {
			t.Fatalf("top-site crawl went below one level: %+v", r)
		}
	}
}

func TestSkipTopsites(t *testing.T) {
	ds := runSubset(t, Config{SkipTopsites: true})
	if len(ds.Topsites) != 0 {
		t.Fatalf("SkipTopsites left %d records", len(ds.Topsites))
	}
}

func TestTrustIPInfoAblation(t *testing.T) {
	verified := runSubset(t, Config{})
	blind := runSubset(t, Config{TrustIPInfo: true})
	known := func(ds *dataset.Dataset) float64 {
		n := 0
		for i := range ds.Records {
			if ds.Records[i].ServeCountry != "" {
				n++
			}
		}
		return float64(n) / float64(len(ds.Records))
	}
	// Trusting the database blindly geolocates everything (it has an
	// answer for every address), while the verified pipeline excludes
	// what it cannot confirm.
	if known(blind) < known(verified) {
		t.Fatalf("blind trust located fewer URLs (%.3f) than verification (%.3f)",
			known(blind), known(verified))
	}
	for i := range blind.Records {
		if blind.Records[i].GeoMethod == "AP" || blind.Records[i].GeoMethod == "MG" {
			t.Fatal("ablation still ran active verification")
		}
	}
}

func TestPerCountryStatsPresent(t *testing.T) {
	ds := runSubset(t, Config{})
	for _, code := range []string{"US", "MX", "DE", "UY"} {
		st := ds.PerCountry[code]
		if st == nil || st.LandingURLs == 0 || st.Hostnames == 0 {
			t.Fatalf("per-country stats for %s missing or empty: %+v", code, st)
		}
	}
}

func TestTotalsConsistent(t *testing.T) {
	ds := runSubset(t, Config{})
	if ds.TotalUniqueURLs == 0 || ds.TotalHostnames == 0 || ds.UniqueIPs == 0 {
		t.Fatalf("zero totals: %+v", ds)
	}
	if ds.GovASes > ds.ASes {
		t.Fatalf("more government ASes (%d) than ASes (%d)", ds.GovASes, ds.ASes)
	}
	if ds.AnycastIPs > ds.UniqueIPs {
		t.Fatal("more anycast IPs than IPs")
	}
	if ds.TotalHostnames > ds.TotalUniqueURLs {
		t.Fatal("more hostnames than URLs")
	}
}

func TestRecordsSorted(t *testing.T) {
	ds := runSubset(t, Config{})
	for i := 1; i < len(ds.Records); i++ {
		a, b := &ds.Records[i-1], &ds.Records[i]
		if a.Country > b.Country || (a.Country == b.Country && a.URL > b.URL) {
			t.Fatalf("records not sorted at %d: %s/%s then %s/%s", i, a.Country, a.URL, b.Country, b.URL)
		}
	}
}

func TestCrawlDepthOverride(t *testing.T) {
	deep := runSubset(t, Config{})
	shallow := runSubset(t, Config{CrawlDepth: 1})
	if len(shallow.Records) >= len(deep.Records) {
		t.Fatalf("depth-1 crawl (%d records) not smaller than depth-7 (%d)",
			len(shallow.Records), len(deep.Records))
	}
	for i := range shallow.Records {
		if shallow.Records[i].Depth > 1 {
			t.Fatal("depth override ignored")
		}
	}
}

func TestGlobalThresholdAblation(t *testing.T) {
	baseline := runSubset(t, Config{})
	ablated := runSubset(t, Config{GlobalThresholdMS: 30})
	geoKnown := func(ds *dataset.Dataset) int {
		n := 0
		for i := range ds.Records {
			if ds.Records[i].ServeCountry != "" {
				n++
			}
		}
		return n
	}
	// The ablation must actually change validation behaviour; with a
	// generous 30 ms global threshold more distant servers pass the
	// check than with road-derived per-country thresholds.
	if geoKnown(ablated) == geoKnown(baseline) {
		t.Log("warning: identical validation counts; acceptable but unusual")
	}
	for i := range ablated.Records {
		if ablated.Records[i].GeoMethod == "" {
			t.Fatal("ablated run skipped geolocation entirely")
		}
	}
}

func TestRunAppliesDefaultsWithoutNewEnv(t *testing.T) {
	// Regression: an Env whose Config skipped withDefaults (a caller
	// mirroring LoadedEnv, or a zero-valued concurrency budget) used to
	// build a zero-capacity semaphore and deadlock every worker. Run
	// must normalise its own configuration.
	env := NewEnv(Config{Scale: 0.02, Countries: []string{"UY"}})
	env.Config.CountryConcurrency = 0
	env.Config.FetchConcurrency = 0
	env.resolutions = nil
	env.resolveHost = nil

	done := make(chan error, 1)
	go func() {
		ds, err := env.Run(context.Background())
		if err == nil && len(ds.Records) == 0 {
			err = errors.New("no records")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("Run deadlocked with an unnormalised zero-concurrency config")
	}
	if env.Config.FetchConcurrency <= 0 || env.Config.CountryConcurrency <= 0 {
		t.Fatalf("Run left the budget unnormalised: %+v", env.Config)
	}
}

func TestRunGoroutineCountBoundedByBudget(t *testing.T) {
	// The scheduler must spawn CountryConcurrency + FetchConcurrency
	// workers, not their product: with the old two-level fan-out this
	// configuration would put 9 + 9×4-ish goroutines in flight.
	before := runtime.NumGoroutine()
	const countryBudget, fetchBudget = 2, 4

	var peak atomic.Int64
	stop := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	runSubset(t, Config{Scale: 0.02, SkipTopsites: true,
		CountryConcurrency: countryBudget, FetchConcurrency: fetchBudget})
	close(stop)
	probeWG.Wait()

	// Budget + main + probe + modest slack for runtime helpers. The
	// pre-scheduler pipeline peaked at ≥ Concurrency² and fails this
	// bound by an order of magnitude.
	limit := int64(before + countryBudget + fetchBudget + 6)
	if peak.Load() > limit {
		t.Fatalf("goroutine peak %d exceeds budget-derived limit %d", peak.Load(), limit)
	}
}

func TestRunCancellationAbandonsQueuedCountries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewEnv(Config{Scale: 0.02, Countries: []string{"US", "MX", "DE", "UY"}}).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAnnotateSharedNegativeCache(t *testing.T) {
	env := NewEnv(Config{Scale: 0.02, Countries: []string{"UY"}})
	c := env.World.MustCountry("UY")

	var mu sync.Mutex
	calls := map[string]int{}
	orig := env.resolveHost
	env.resolveHost = func(host string) (netip.Addr, whois.Record, error) {
		mu.Lock()
		calls[host]++
		mu.Unlock()
		if host == "broken.gub.uy" {
			return netip.Addr{}, whois.Record{}, errors.New("NXDOMAIN")
		}
		return orig(host)
	}

	goodHost := har.HostOf(env.Estate.LandingURLs["UY"][0])
	good := har.Entry{URL: "https://" + goodHost + "/", Host: goodHost, Status: 200, BodySize: 1}
	bad := har.Entry{URL: "https://broken.gub.uy/", Host: "broken.gub.uy", Status: 200, BodySize: 1}

	for i := 0; i < 3; i++ {
		if _, err := env.annotate(c, good); err != nil {
			t.Fatalf("annotate(good) attempt %d: %v", i, err)
		}
		if _, err := env.annotate(c, bad); err == nil {
			t.Fatalf("annotate(bad) attempt %d succeeded", i)
		}
	}
	if calls[goodHost] != 1 {
		t.Fatalf("good host resolved %d times, want 1 (cache miss only once)", calls[goodHost])
	}
	if calls["broken.gub.uy"] != 1 {
		t.Fatalf("failed host resolved %d times, want 1 (negative caching)", calls["broken.gub.uy"])
	}
	if env.resolutions.memo.Len() != 2 {
		t.Fatalf("cache holds %d hostnames, want 2", env.resolutions.memo.Len())
	}
}

func TestResolutionCacheSharedAcrossCountries(t *testing.T) {
	// The cache lives at the Env, not per country: a full run resolves
	// each distinct hostname exactly once even with countries in
	// flight concurrently.
	env := NewEnv(Config{Scale: 0.03, SkipTopsites: true,
		Countries: []string{"US", "MX", "UY"}, CountryConcurrency: 3, FetchConcurrency: 8})
	var mu sync.Mutex
	calls := map[string]int{}
	orig := env.resolveHost
	env.resolveHost = func(host string) (netip.Addr, whois.Record, error) {
		mu.Lock()
		calls[host]++
		mu.Unlock()
		return orig(host)
	}
	if _, err := env.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for host, n := range calls {
		if n != 1 {
			t.Fatalf("host %s resolved %d times, want 1", host, n)
		}
	}
	if len(calls) == 0 {
		t.Fatal("resolver never consulted")
	}
}

func TestPipelineDeterministicWithCapAndConcurrency(t *testing.T) {
	// The issue's headline determinism case: a MaxURLs cap plus real
	// concurrency used to make frontier admission a worker race; now
	// equal seeds must yield identical datasets, record for record.
	cfg := Config{Scale: 0.03, MaxURLsPerCrawl: 40,
		CountryConcurrency: 4, FetchConcurrency: 8}
	a := runSubset(t, cfg)
	b := runSubset(t, cfg)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ under cap: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if fmt.Sprintf("%+v", a.Records[i]) != fmt.Sprintf("%+v", b.Records[i]) {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a.Records[i], b.Records[i])
		}
	}
	for i := range a.Topsites {
		if a.Topsites[i].URL != b.Topsites[i].URL || a.Topsites[i].IP != b.Topsites[i].IP {
			t.Fatalf("topsite record %d differs", i)
		}
	}
	// The cap must actually bite, or this test proves nothing.
	capped := false
	for _, st := range a.PerCountry {
		if st.LandingURLs+st.InternalURLs >= 38 {
			capped = true
		}
	}
	if !capped {
		t.Log("warning: MaxURLsPerCrawl=40 never reached at this scale")
	}
}

func TestMaxURLsPerCrawlLimitsDataset(t *testing.T) {
	uncapped := runSubset(t, Config{Scale: 0.03, SkipTopsites: true, Countries: []string{"US"}})
	capped := runSubset(t, Config{Scale: 0.03, SkipTopsites: true, Countries: []string{"US"},
		MaxURLsPerCrawl: 10})
	if len(capped.Records) > 10 {
		t.Fatalf("cap of 10 produced %d records", len(capped.Records))
	}
	if len(capped.Records) >= len(uncapped.Records) {
		t.Fatalf("cap did not reduce the crawl: %d vs %d", len(capped.Records), len(uncapped.Records))
	}
}

func TestTrendYearsAtCoreLevel(t *testing.T) {
	now := runSubset(t, Config{SkipTopsites: true})
	future := runSubset(t, Config{SkipTopsites: true, TrendYears: 8})
	share := func(ds *dataset.Dataset) float64 {
		var global, total float64
		for i := range ds.Records {
			if ds.Records[i].Category == world.Cat3PGlobal {
				global++
			}
			total++
		}
		return global / total
	}
	if share(future) <= share(now) {
		t.Fatalf("trend did not raise the global share: %.3f -> %.3f", share(now), share(future))
	}
}
