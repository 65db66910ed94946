package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/metrics"
)

// chaosConfig is the shared base for the chaos suite: a small country
// subset under the aggressive profile — double-digit fault rates on
// every axis, the worst the paper's harness met on the live web.
func chaosConfig() Config {
	return Config{
		Seed:         42,
		Scale:        0.02,
		Countries:    []string{"US", "UY", "NG"},
		FaultProfile: "aggressive",
		SkipTopsites: true,
	}
}

func exportBytes(t *testing.T, ds *dataset.Dataset) ([]byte, []byte) {
	t.Helper()
	var jsonl, csv bytes.Buffer
	if err := export.WriteJSONL(&jsonl, ds); err != nil {
		t.Fatal(err)
	}
	if err := export.WriteCSV(&csv, ds); err != nil {
		t.Fatal(err)
	}
	return jsonl.Bytes(), csv.Bytes()
}

// TestChaosDeterministicAcrossConcurrency is the headline guarantee:
// the same (seed, fault seed, profile) must export byte-identical
// JSONL and CSV — fault plan, retries, failure taxonomy and all — no
// matter how the scheduler interleaves the run.
func TestChaosDeterministicAcrossConcurrency(t *testing.T) {
	shapes := []struct{ country, fetch int }{
		{1, 1},
		{2, 4},
		{3, 16},
	}
	var refJSONL, refCSV []byte
	for _, sh := range shapes {
		cfg := chaosConfig()
		cfg.CountryConcurrency = sh.country
		cfg.FetchConcurrency = sh.fetch
		ds, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("concurrency %+v: %v", sh, err)
		}
		jsonl, csv := exportBytes(t, ds)
		if refJSONL == nil {
			refJSONL, refCSV = jsonl, csv
			continue
		}
		if !bytes.Equal(refJSONL, jsonl) {
			t.Errorf("JSONL diverged at concurrency %+v", sh)
		}
		if !bytes.Equal(refCSV, csv) {
			t.Errorf("CSV diverged at concurrency %+v", sh)
		}
	}
}

// TestChaosFaultSeedIndependent: changing only the fault seed replays
// the same study under different faults — output must change (the
// faults moved) while the clean-run baseline is unaffected by fault
// seed at profile off.
func TestChaosFaultSeedIndependent(t *testing.T) {
	a := chaosConfig()
	b := chaosConfig()
	b.FaultSeed = 99
	dsA, err := Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	dsB, err := Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := exportBytes(t, dsA)
	jb, _ := exportBytes(t, dsB)
	if bytes.Equal(ja, jb) {
		t.Error("fault seeds 42 and 99 produced identical chaos runs")
	}

	clean := chaosConfig()
	clean.FaultProfile = "off"
	clean.FaultSeed = 7
	clean2 := chaosConfig()
	clean2.FaultProfile = "off"
	clean2.FaultSeed = 1234
	c1, err := Run(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Run(context.Background(), clean2)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := exportBytes(t, c1)
	j2, _ := exportBytes(t, c2)
	if !bytes.Equal(j1, j2) {
		t.Error("fault seed leaked into a fault-free run")
	}
}

// TestChaosRunCompletesWithTaxonomy: under aggressive faults the
// pipeline must finish and account for every loss in the per-country
// failure taxonomy instead of aborting.
func TestChaosRunCompletesWithTaxonomy(t *testing.T) {
	ds, err := Run(context.Background(), chaosConfig())
	if err != nil {
		t.Fatalf("aggressive-profile run aborted: %v", err)
	}
	if ds.TotalFailedURLs == 0 {
		t.Fatal("aggressive profile produced zero failures")
	}
	if ds.TotalRetries == 0 {
		t.Error("no retries recorded under a 10%% timeout rate")
	}
	known := map[string]bool{
		"dns": true, "timeout": true, "reset": true,
		"geo-blocked": true, "5xx": true, "truncated": true, "other": true,
	}
	for kind := range ds.FailuresByKind {
		if !known[kind] {
			t.Errorf("unknown failure kind %q in taxonomy", kind)
		}
	}
	// Collection still produced data for the countries whose vantage
	// validated.
	if len(ds.Records) == 0 {
		t.Fatal("no records survived the chaos run")
	}
	for code, st := range ds.PerCountry {
		if st.Failed {
			continue
		}
		if st.Attempted < st.LandingURLs {
			t.Errorf("%s: attempted %d < %d landings — entries lost", code, st.Attempted, st.LandingURLs)
		}
		if st.FailedURLs > st.Attempted {
			t.Errorf("%s: %d failures out of %d attempts", code, st.FailedURLs, st.Attempted)
		}
		sum := 0
		for _, n := range st.Failures {
			sum += n
		}
		if sum != st.FailedURLs {
			t.Errorf("%s: taxonomy sums to %d, FailedURLs is %d", code, sum, st.FailedURLs)
		}
	}
}

// TestChaosStormTaxonomyBreadth: retries heal most aggressive-profile
// faults (that is the point of the Retrier), so a storm profile —
// rates high enough that three attempts routinely all fault — is what
// populates several taxonomy buckets at once.
func TestChaosStormTaxonomyBreadth(t *testing.T) {
	cfg := chaosConfig()
	cfg.FaultProfile = "timeout=0.5,reset=0.4,5xx=0.45,truncate=0.4,dead=0.05,servfail=0.5"
	ds, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("fault storm aborted the run: %v", err)
	}
	if len(ds.FailuresByKind) < 3 {
		t.Errorf("storm taxonomy too thin: %v", ds.FailuresByKind)
	}
	if ds.TotalFailedURLs == 0 || ds.TotalFailedURLs > ds.TotalAttempted {
		t.Errorf("failed %d of %d attempted", ds.TotalFailedURLs, ds.TotalAttempted)
	}
}

// TestChaosNoLostOrDuplicatedRecords: graceful degradation must not
// mint duplicate records or leak a record for a URL that also counted
// as a failure.
func TestChaosNoLostOrDuplicatedRecords(t *testing.T) {
	ds, err := Run(context.Background(), chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	perCountry := map[string]int{}
	for i := range ds.Records {
		r := &ds.Records[i]
		key := r.Country + "|" + r.URL
		if seen[key] {
			t.Fatalf("duplicate record %s", key)
		}
		seen[key] = true
		perCountry[r.Country]++
	}
	for code, st := range ds.PerCountry {
		if st.Failed && perCountry[code] > 0 {
			t.Errorf("%s declared failed but has %d records", code, perCountry[code])
		}
		if n := perCountry[code]; n > st.Attempted-st.FailedURLs {
			t.Errorf("%s: %d records exceed %d usable fetches — a failure also became a record",
				code, n, st.Attempted-st.FailedURLs)
		}
	}
}

// TestChaosWhollyFailedCountry: flap=1.0 makes every egress fail
// validation; the run must complete with the countries marked failed
// (partial dataset + failure summary), not abort.
func TestChaosWhollyFailedCountry(t *testing.T) {
	cfg := chaosConfig()
	cfg.FaultProfile = "flap=1.0"
	ds, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run aborted instead of degrading: %v", err)
	}
	if len(ds.Records) != 0 {
		t.Errorf("%d records from countries with no valid vantage", len(ds.Records))
	}
	if len(ds.FailedCountries) != 3 {
		t.Fatalf("FailedCountries = %v, want all 3", ds.FailedCountries)
	}
	for _, code := range cfg.Countries {
		st := ds.PerCountry[code]
		if st == nil || !st.Failed {
			t.Fatalf("%s missing Failed stats entry: %+v", code, st)
		}
		if st.FailureReason == "" {
			t.Errorf("%s has no failure reason", code)
		}
		if st.VantageAttempts != maxVantageAttempts {
			t.Errorf("%s used %d vantage attempts, want the full %d", code, st.VantageAttempts, maxVantageAttempts)
		}
	}
}

// TestChaosEgressFlapRecovery: at a mid flap rate at least one country
// needs more than one vantage attempt, and every non-failed country
// recovered within the bounded re-connection loop.
func TestChaosEgressFlapRecovery(t *testing.T) {
	cfg := chaosConfig()
	cfg.FaultProfile = "flap=0.5"
	ds, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	retried := false
	for code, st := range ds.PerCountry {
		if st.VantageAttempts < 1 || st.VantageAttempts > maxVantageAttempts {
			t.Errorf("%s: vantage attempts %d out of range", code, st.VantageAttempts)
		}
		if st.VantageAttempts > 1 {
			retried = true
		}
		if !st.Failed && len(ds.PerCountry) > 0 && st.LandingURLs > 0 && st.Attempted == 0 {
			t.Errorf("%s recovered its vantage but crawled nothing", code)
		}
	}
	if !retried {
		t.Error("flap=0.5 never forced a vantage re-connection across 3 countries")
	}
}

// TestChaosPromptCancellation: cancellation must cut through retry
// backoffs and injected slow responses quickly.
func TestChaosPromptCancellation(t *testing.T) {
	cfg := chaosConfig()
	cfg.FaultProfile = "slow=1.0,slowdelay=50ms,timeout=0.3"
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Run(ctx, cfg)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not stop the chaos run within 5s")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run dragged %v after cancellation", elapsed)
	}
}

// TestChaosRetryBudgetBounds: a binding study-wide budget caps total
// retry spend (the documented cost valve; determinism is traded away,
// which is why the deterministic tests leave it unlimited).
func TestChaosRetryBudgetBounds(t *testing.T) {
	cfg := chaosConfig()
	cfg.RetryBudget = 10
	ds, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.TotalRetries > 10 {
		t.Fatalf("spent %d retries against a budget of 10", ds.TotalRetries)
	}
}

// TestCleanRunHasEmptyTaxonomy: with faults off, coverage accounting
// must report full success — the accounting layer itself cannot invent
// failures.
func TestCleanRunHasEmptyTaxonomy(t *testing.T) {
	cfg := chaosConfig()
	cfg.FaultProfile = "off"
	ds, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.TotalFailedURLs != 0 || len(ds.FailuresByKind) != 0 || len(ds.FailedCountries) != 0 {
		t.Fatalf("clean run reports failures: %d failed, %v, failed countries %v",
			ds.TotalFailedURLs, ds.FailuresByKind, ds.FailedCountries)
	}
	for code, st := range ds.PerCountry {
		if st.Attempted == 0 {
			t.Errorf("%s attempted nothing", code)
		}
		if st.VantageAttempts != 1 {
			t.Errorf("%s: %d vantage attempts on a healthy network", code, st.VantageAttempts)
		}
	}
}

// TestChaosBadProfileRejected: an unparseable profile is a config
// error, reported before any work starts.
func TestChaosBadProfileRejected(t *testing.T) {
	cfg := chaosConfig()
	cfg.FaultProfile = "timeout=2.0"
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("bad fault profile accepted")
	}
}

// runWithMetrics executes cfg on a fresh Env and returns the dataset,
// the Env (for cache introspection) and the frozen metrics snapshot.
func runWithMetrics(t *testing.T, cfg Config) (*dataset.Dataset, *Env, metrics.Snapshot) {
	t.Helper()
	env := NewEnv(cfg)
	ds, err := env.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if env.Metrics() == nil {
		t.Fatal("no metrics registry on a default-config run")
	}
	return ds, env, env.Metrics().Snapshot()
}

// TestMetricsDeterministicAcrossConcurrency is the metrics counterpart
// of the headline chaos guarantee: the deterministic half of the
// snapshot must be byte-identical for equal seeds at any concurrency
// shape — under the healthy world and under aggressive fault
// injection. Timings and queue pressure land in the runtime half and
// are free to differ.
func TestMetricsDeterministicAcrossConcurrency(t *testing.T) {
	shapes := []struct{ country, fetch int }{
		{1, 1},
		{2, 4},
		{3, 16},
	}
	for _, profile := range []string{"off", "aggressive"} {
		var ref []byte
		var refShape struct{ country, fetch int }
		for _, sh := range shapes {
			cfg := chaosConfig()
			cfg.FaultProfile = profile
			cfg.CountryConcurrency = sh.country
			cfg.FetchConcurrency = sh.fetch
			_, _, snap := runWithMetrics(t, cfg)
			got, err := snap.DeterministicJSON()
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref, refShape = got, sh
				continue
			}
			if !bytes.Equal(ref, got) {
				t.Errorf("profile %q: deterministic snapshot diverged between shapes %+v and %+v",
					profile, refShape, sh)
			}
		}
	}
}

// TestMetricsSnapshotInvariants derives the pipeline's accounting
// identities from one snapshot: every crawled URL lands in exactly one
// bucket, every cache lookup is a hit or a miss, every fetch attempt
// is a first try or a counted retry. The identities must hold in the
// healthy world and under faults alike.
func TestMetricsSnapshotInvariants(t *testing.T) {
	for _, profile := range []string{"off", "aggressive"} {
		cfg := chaosConfig()
		cfg.FaultProfile = profile
		ds, env, snap := runWithMetrics(t, cfg)
		d := snap.Deterministic

		// A completed run executes every scheduled item.
		if d.Sched.ItemsScheduled != d.Sched.ItemsRun {
			t.Errorf("%s: scheduled %d items, ran %d", profile, d.Sched.ItemsScheduled, d.Sched.ItemsRun)
		}

		// Cache: lookups partition into hits and misses; annotate
		// resolves exactly once per call; misses are distinct hostnames.
		if d.Cache.Hits+d.Cache.Misses != d.Cache.Lookups {
			t.Errorf("%s: hits %d + misses %d != lookups %d", profile, d.Cache.Hits, d.Cache.Misses, d.Cache.Lookups)
		}
		if d.Cache.Lookups != d.Pipeline.Annotations {
			t.Errorf("%s: %d cache lookups, %d annotations", profile, d.Cache.Lookups, d.Pipeline.Annotations)
		}
		if got := int64(env.resolutions.size()); d.Cache.Misses != got {
			t.Errorf("%s: %d misses but %d cached hostnames", profile, d.Cache.Misses, got)
		}
		if d.Cache.NegativeEntries > d.Cache.Misses || d.Cache.NegativeHits > d.Cache.Hits {
			t.Errorf("%s: negative entries/hits %d/%d exceed misses/hits %d/%d",
				profile, d.Cache.NegativeEntries, d.Cache.NegativeHits, d.Cache.Misses, d.Cache.Hits)
		}

		// Geolocation caches: same partition identity per cache, and a
		// run that produced records must have geolocated something —
		// the cached path is exercised, not bypassed.
		for _, gc := range []struct {
			name string
			c    metrics.CacheCounters
		}{{"geo.unicast", d.Geo.Unicast}, {"geo.anycast", d.Geo.Anycast}} {
			if gc.c.Hits+gc.c.Misses != gc.c.Lookups {
				t.Errorf("%s: %s hits %d + misses %d != lookups %d",
					profile, gc.name, gc.c.Hits, gc.c.Misses, gc.c.Lookups)
			}
			if gc.c.NegativeEntries > gc.c.Misses || gc.c.NegativeHits > gc.c.Hits {
				t.Errorf("%s: %s negative entries/hits %d/%d exceed misses/hits %d/%d",
					profile, gc.name, gc.c.NegativeEntries, gc.c.NegativeHits, gc.c.Misses, gc.c.Hits)
			}
		}
		if len(ds.Records) > 0 && d.Geo.Unicast.Lookups+d.Geo.Anycast.Lookups == 0 {
			t.Errorf("%s: %d records produced but the geolocation caches saw no lookups",
				profile, len(ds.Records))
		}

		// Fetch: each admitted frontier URL is fetched once, plus one
		// attempt per counted retry; the retry ledger sums by kind.
		if d.Fetch.Attempts != d.Crawl.FrontierAdmitted+d.Fetch.Retries {
			t.Errorf("%s: attempts %d != admitted %d + retries %d",
				profile, d.Fetch.Attempts, d.Crawl.FrontierAdmitted, d.Fetch.Retries)
		}
		var retryKinds int64
		for _, n := range d.Fetch.RetriesByKind {
			retryKinds += n
		}
		if retryKinds != d.Fetch.Retries {
			t.Errorf("%s: retry kinds sum to %d, Retries is %d", profile, retryKinds, d.Fetch.Retries)
		}

		// Crawl: the per-depth distribution sums to the admitted total.
		var byDepth int64
		for _, n := range d.Crawl.URLsByDepth {
			byDepth += n
		}
		if byDepth != d.Crawl.FrontierAdmitted {
			t.Errorf("%s: per-depth URLs sum to %d, admitted %d", profile, byDepth, d.Crawl.FrontierAdmitted)
		}

		// Pipeline: the per-country rows close the accounting identity
		// and roll up to the study totals and the dataset's own ledger.
		var recSum, failSum int64
		for code, c := range d.Pipeline.Countries {
			if c.Attempted != c.Records+c.Failures+c.Discarded+c.Unusable {
				t.Errorf("%s/%s: attempted %d != records %d + failures %d + discarded %d + unusable %d",
					profile, code, c.Attempted, c.Records, c.Failures, c.Discarded, c.Unusable)
			}
			recSum += c.Records
			failSum += c.Failures
		}
		if recSum != d.Pipeline.Records || failSum != d.Pipeline.Failures {
			t.Errorf("%s: country rows sum to %d records / %d failures, totals say %d / %d",
				profile, recSum, failSum, d.Pipeline.Records, d.Pipeline.Failures)
		}
		var failKinds int64
		for _, n := range d.Pipeline.FailuresByKind {
			failKinds += n
		}
		if failKinds != d.Pipeline.Failures {
			t.Errorf("%s: failure kinds sum to %d, Failures is %d", profile, failKinds, d.Pipeline.Failures)
		}
		if got := int64(len(cfg.Countries)); d.Pipeline.CountriesRun != got {
			t.Errorf("%s: CountriesRun = %d, want %d", profile, d.Pipeline.CountriesRun, got)
		}

		// The snapshot agrees with the dataset the same run produced
		// (SkipTopsites, so pipeline records are exactly ds.Records).
		if int(d.Pipeline.Records) != len(ds.Records) {
			t.Errorf("%s: snapshot records %d, dataset has %d", profile, d.Pipeline.Records, len(ds.Records))
		}
		if int(d.Pipeline.Failures) != ds.TotalFailedURLs {
			t.Errorf("%s: snapshot failures %d, dataset says %d", profile, d.Pipeline.Failures, ds.TotalFailedURLs)
		}
		if int(d.Fetch.Retries) != ds.TotalRetries {
			t.Errorf("%s: snapshot retries %d, dataset says %d", profile, d.Fetch.Retries, ds.TotalRetries)
		}

		if profile == "off" {
			if d.Fetch.Retries != 0 || d.Pipeline.Failures != 0 || len(d.Faults.Injections) != 0 {
				t.Errorf("healthy run shows retries %d, failures %d, injections %v",
					d.Fetch.Retries, d.Pipeline.Failures, d.Faults.Injections)
			}
		} else {
			if len(d.Faults.Injections) == 0 {
				t.Errorf("aggressive run recorded no injected faults")
			}
			if d.Fetch.Retries == 0 {
				t.Errorf("aggressive run recorded no retries")
			}
		}
	}
}

// TestMetricsRetryBudgetBound: the deterministic retry counter must
// respect a binding study-wide budget even though which retries got
// the tokens is interleaving-dependent, and the runtime half must count
// the retries the budget denied the government crawls (the config
// skips topsites).
func TestMetricsRetryBudgetBound(t *testing.T) {
	cfg := chaosConfig()
	cfg.RetryBudget = 10
	_, _, snap := runWithMetrics(t, cfg)
	if got := snap.Deterministic.Fetch.Retries; got > 10 {
		t.Errorf("snapshot counts %d retries against a budget of 10", got)
	}
	if got := snap.Runtime.Fetch.BudgetDenied; got == 0 {
		t.Error("budget_denied = 0 under a binding budget of 10")
	}
}
