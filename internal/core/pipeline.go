package core

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/fetch"
	"repro/internal/govclass"
	"repro/internal/har"
	"repro/internal/metrics"
	"repro/internal/probing"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/vantage"
	"repro/internal/webgen"
	"repro/internal/world"
)

// Run executes the pipeline against an already-built environment.
//
// One study-wide scheduler owns every fetch/annotate task: a bounded
// pool of FetchConcurrency workers is shared by all crawls, and at
// most CountryConcurrency countries are in flight at once. Total
// goroutine count is therefore CountryConcurrency + FetchConcurrency —
// the configured budget — where the old per-country pools spawned
// Concurrency² workers. Cancellation abandons queued countries and
// queued fetches promptly, not just in-flight crawls.
func (env *Env) Run(ctx context.Context) (*dataset.Dataset, error) {
	// Normalise here, not only in NewEnv: an Env assembled by hand
	// (e.g. a caller mirroring LoadedEnv) would otherwise run with a
	// zero concurrency budget, and a zero-capacity semaphore deadlocks
	// every worker.
	cfg := env.Config.withDefaults()
	if cfg.ShardCount > 0 {
		// Shard-worker mode: the worker owns a deterministic slice of
		// the study and shares the checkpoint directory with its
		// siblings. Topsites belong to the assembly pass (they are never
		// checkpointed), and a restarted worker must resume its own
		// earlier progress, so both flags are forced rather than trusted
		// to the spawner.
		if cfg.CheckpointDir == "" {
			return nil, fmt.Errorf("core: shard worker %d/%d needs a checkpoint directory", cfg.ShardIndex, cfg.ShardCount)
		}
		if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount {
			return nil, fmt.Errorf("core: shard index %d out of range for %d shards", cfg.ShardIndex, cfg.ShardCount)
		}
		cfg.SkipTopsites = true
		cfg.Resume = true
	}
	env.Config = cfg
	if env.metrics == nil {
		env.metrics = metrics.New()
		env.wireProberMetrics()
	}
	if env.resolutions == nil {
		env.resolutions = newRescache(&env.metrics.Cache.Coalesced)
	}
	if env.resolveHost == nil {
		env.resolveHost = env.zoneResolve
	}
	studyStart := runtimeNow()
	if env.Faults == nil && cfg.FaultProfile != "" {
		prof, err := faults.ParseProfile(cfg.FaultProfile)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if prof.Enabled() {
			env.Faults = faults.NewPlan(cfg.FaultSeed, prof)
		}
	}
	// DNS faults wrap the study-wide resolver once: each hostname gets
	// a bounded, deterministic attempt sequence, so an injected
	// SERVFAIL on attempt 0 can still resolve on attempt 1.
	if env.Faults != nil && env.Faults.Profile.DNSServfail > 0 && !env.faultsWired {
		env.faultsWired = true
		env.resolveHost = faultyResolve(env.Faults, env.resolveHost)
	}
	countries := env.studyCountries()

	ds := &dataset.Dataset{
		PerCountry: make(map[string]*dataset.CountryStats),
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
	}

	// Open the checkpoint store before any work starts: a manifest
	// mismatch, a live conflicting lease or an unwilling directory
	// should fail the run while it is still free to fail. Countries
	// that fail checkpoint verification are quarantined by Open and
	// simply re-run below — self-healing resume.
	var store *checkpoint.Store
	var loaded []checkpoint.Country
	if cfg.CheckpointDir != "" {
		slots := cfg.ShardCount
		if slots <= 0 {
			slots = 1
		}
		s, res, err := checkpoint.Open(cfg.CheckpointDir, env.manifest(countries), checkpoint.Options{
			Resume: cfg.Resume, Slot: cfg.ShardIndex, Slots: slots,
		})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		defer s.Close()
		store, loaded = s, res.Countries
		env.metrics.Shard.RecordQuarantined(int64(len(res.Quarantined)))
	}

	pool := sched.NewPool(cfg.FetchConcurrency)
	defer pool.Close()
	pool.SetMetrics(&env.metrics.Sched)
	if cfg.RetryBudget > 0 {
		// Loaded countries already spent their share of the study-wide
		// budget; the resuming run inherits only the remainder, so a
		// resumed run can never spend more retries than the budget.
		rem := cfg.RetryBudget
		for i := range loaded {
			if loaded[i].Stats != nil {
				rem -= int64(loaded[i].Stats.Retries)
			}
		}
		if rem < 0 {
			rem = 0
		}
		pool.SetRetryBudget(sched.NewBudget(rem))
	}

	// The merge sink consumes completed countries in sorted-code order
	// while later countries are still crawling: each completion flushes
	// straight into the dataset (and the checkpoint store) the moment
	// every earlier country is in, so peak buffered state is the parked
	// out-of-order completions, not the whole study.
	// The full study set pins the manifest; in shard-worker mode the
	// sink (and the coordinator feed) cover only this worker's owned
	// slice, so a sibling's unfinished rank can never block a flush.
	studySet := make(map[string]bool, len(countries))
	codes := make([]string, len(countries))
	for i, c := range countries {
		codes[i] = c.Code
		studySet[c.Code] = true
	}
	run := countries
	sinkCodes := codes
	if cfg.ShardCount > 1 {
		sinkCodes = shard.Owned(codes, cfg.ShardIndex, cfg.ShardCount)
		ownedSet := make(map[string]bool, len(sinkCodes))
		for _, code := range sinkCodes {
			ownedSet[code] = true
		}
		run = make([]*world.Country, 0, len(sinkCodes))
		for _, c := range countries {
			if ownedSet[c.Code] {
				run = append(run, c)
			}
		}
	}
	sink := newMergeSink(env, ds, store, sinkCodes)
	var sinkMu sync.Mutex

	// Resume: hand the stored countries this run owns to the sink at
	// their ranks so fresh countries slot in around them. A sibling
	// shard's country is neither re-run nor assembled — its own worker
	// (or the assembly pass) owns its rank. The shared caches start
	// empty: every resolution and verdict is a pure function of the
	// seeded world and the fault plan, so recomputing one a stored
	// country already paid for gives the same answer.
	loadedSet := make(map[string]bool, len(loaded))
	for i := range loaded {
		lc := &loaded[i]
		if !studySet[lc.Code] {
			return nil, fmt.Errorf("core: checkpoint holds country %s outside the study set", lc.Code)
		}
		loadedSet[lc.Code] = true
		if _, ok := sink.rank[lc.Code]; !ok {
			continue
		}
		methods := make(map[govclass.URLMethod]int, len(lc.Methods))
		for m, n := range lc.Methods {
			methods[govclass.URLMethod(m)] = n
		}
		if err := sink.complete(&countryDone{
			code: lc.Code, stats: lc.Stats, records: lc.Records,
			methods: methods, failed: lc.FailedHosts, tally: lc.Tally,
		}); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	// Countries owned by a shard that exhausted its restart budget
	// degrade to typed failure rows — the run continues and the dataset
	// is partial with full accounting, not aborted. A listed country
	// that did checkpoint before its shard died loads normally above.
	// The rows are transient: the sink never persists them, so a later
	// resume of the directory re-runs the countries instead of
	// inheriting this run's crashes.
	if len(cfg.FailCountries) > 0 {
		failCodes := append([]string(nil), cfg.FailCountries...)
		sort.Strings(failCodes)
		prev := ""
		for _, code := range failCodes {
			if code == prev || !studySet[code] || loadedSet[code] {
				continue
			}
			prev = code
			if _, ok := sink.rank[code]; !ok {
				continue
			}
			loadedSet[code] = true
			c := env.World.MustCountry(code)
			stats := &dataset.CountryStats{
				Country: code, Region: c.Region,
				LandingURLs:   len(env.Estate.LandingURLs[code]),
				Failed:        true,
				FailureReason: "shard worker exhausted its restart budget; country not collected",
			}
			if err := sink.complete(&countryDone{code: code, stats: stats}); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
	}

	// A fixed team of coordinators pulls country indexes from a
	// channel; all their fetch/annotate work funnels through the shared
	// pool.
	errs := make([]error, len(run))
	idx := make(chan int)
	wait := sched.Workers(cfg.CountryConcurrency, func(int) {
		for i := range idx {
			if ctx.Err() != nil {
				continue // drain the remaining indexes without working
			}
			d, err := env.runCountry(ctx, run[i], pool)
			if err != nil {
				errs[i] = err
				continue
			}
			d.fresh = true
			sinkMu.Lock()
			err = sink.complete(d)
			sinkMu.Unlock()
			if err != nil {
				errs[i] = err
			}
		}
	})
feed:
	for i := range run {
		if loadedSet[run[i].Code] {
			continue
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wait()

	if err := ctx.Err(); err != nil {
		// Cancellation used to discard every completed country. With a
		// checkpoint store attached, completions parked behind a
		// still-crawling earlier country are flushed — and persisted —
		// before the error returns, so finished work survives the kill.
		if store != nil {
			sinkMu.Lock()
			derr := sink.drain()
			sinkMu.Unlock()
			if derr != nil {
				return nil, fmt.Errorf("core: %w", derr)
			}
		}
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			// Only cancellation and checkpoint-write failures propagate
			// here; per-country collection failures degrade to a Failed
			// stats entry inside runCountry, so one hostile country
			// cannot abort the study.
			return nil, fmt.Errorf("core: country %s: %w", run[i].Code, e)
		}
	}

	sink.assemble()

	var topFailed []checkpoint.HostOutcome
	var topTallies []metrics.CrawlTally
	if !cfg.SkipTopsites {
		topStart := runtimeNow()
		var err error
		topFailed, topTallies, err = env.runTopsites(ctx, ds, pool)
		if err != nil {
			return nil, err
		}
		env.metrics.Pipeline.ObserveStage("topsites", runtimeSince(topStart))
	}
	env.metrics.SetDeterministic(studyLedger(ds, sink.done, topFailed, topTallies, env.Faults, !cfg.TrustIPInfo))

	assignCategories(env, ds)
	ds.FillTotals()
	env.metrics.Pipeline.ObserveStage("study", runtimeSince(studyStart))
	return ds, nil
}

// manifest pins the parameters a checkpoint directory must share with
// this run. SkipTopsites is excluded: topsites are never checkpointed
// and re-run on resume under the current flag.
func (env *Env) manifest(countries []*world.Country) checkpoint.Manifest {
	cfg := env.Config
	codes := make([]string, len(countries))
	for i, c := range countries {
		codes[i] = c.Code
	}
	sort.Strings(codes)
	return checkpoint.Manifest{
		Format: checkpoint.FormatVersion,
		Seed:   cfg.Seed, Scale: cfg.Scale, Countries: codes,
		CrawlDepth: cfg.CrawlDepth, MaxURLsPerCrawl: cfg.MaxURLsPerCrawl,
		FaultProfile: cfg.FaultProfile, FaultSeed: cfg.FaultSeed,
		RetryAttempts: cfg.RetryAttempts, RetryBudget: cfg.RetryBudget,
		TrustIPInfo: cfg.TrustIPInfo, GlobalThresholdMS: cfg.GlobalThresholdMS,
		DisableSAN: cfg.DisableSAN, TrendYears: cfg.TrendYears,
		IPInfoErrorRate: ipinfoErrorRate, ManycastRecall: manycastRecall,
	}
}

// StudyManifest resolves the checkpoint manifest a configuration pins
// without materialising the synthetic environment — the supervisor's
// pre-flight, used to validate (or create) the shared directory and to
// learn the resolved study set before any worker process exists.
func StudyManifest(cfg Config) checkpoint.Manifest {
	env := &Env{Config: cfg.withDefaults(), World: world.New()}
	return env.manifest(env.studyCountries())
}

// studyCountries resolves the configured country subset.
func (env *Env) studyCountries() []*world.Country {
	var out []*world.Country
	if len(env.Config.Countries) == 0 {
		for _, c := range env.World.Panel() {
			if c.Landing > 0 {
				out = append(out, c)
			}
		}
		return out
	}
	// Deduplicate: the merge sink ranks countries by code, and a code
	// listed twice must not run (or flush) twice.
	seen := map[string]bool{}
	for _, code := range env.Config.Countries {
		c := env.World.MustCountry(code)
		if c.Landing > 0 && !seen[c.Code] {
			seen[c.Code] = true
			out = append(out, c)
		}
	}
	return out
}

// maxVantageAttempts bounds the §3.2 egress re-connection loop: a
// vantage that fails location validation is reconnected with a fresh
// deterministic egress this many times before the country is declared
// failed.
const maxVantageAttempts = 3

// connectVantage obtains a location-validated vantage for c, retrying
// with fresh egresses on validation failure (or on an injected egress
// flap). It reports the attempts used so coverage stats record how
// hard the vantage was to pin down, and the flaps injected on the way.
func (env *Env) connectVantage(c *world.Country) (*vantage.Point, int, int64, error) {
	var err error
	var flaps int64
	for attempt := 0; attempt < maxVantageAttempts; attempt++ {
		vp := vantage.ConnectAttempt(c, env.Estate, env.Net, env.Config.Seed, attempt)
		err = vp.ValidateLocation(env.Net)
		if err == nil && env.Faults != nil && env.Faults.EgressFlap(c.Code, attempt) {
			flaps++
			err = fmt.Errorf("faults: egress %v flapped during validation (injected)", vp.Egress)
		}
		if err == nil {
			return vp, attempt + 1, flaps, nil
		}
	}
	return nil, maxVantageAttempts, flaps, err
}

// addFlaps counts a country's injected egress flaps into its tally.
func addFlaps(t *metrics.CrawlTally, flaps int64) {
	if flaps > 0 {
		metrics.AddLabel(&t.Injections, string(faults.KindFlap), flaps)
	}
}

// crawl runs one crawl on the shared pool through the fetch stack: the
// vantage's raw fetcher, the fault injector when a plan is active, and
// the retrying fetcher on top — classification-driven retries with
// capped, seed-jittered backoff, drawing on the pool's study-wide
// retry budget. It returns the archive with the crawl's tally row, and
// adds the retrier's budget denials to the runtime metrics.
func (env *Env) crawl(ctx context.Context, pool *sched.Pool, inner fetch.Fetcher, cfg crawler.Config, landings []string) (*har.Archive, metrics.CrawlTally, error) {
	var injector *faults.Fetcher
	if env.Faults != nil {
		injector = &faults.Fetcher{Inner: inner, Plan: env.Faults}
		inner = injector
	}
	r := &fetch.Retrier{
		Inner: inner,
		Policy: fetch.RetryPolicy{
			MaxAttempts: env.Config.RetryAttempts,
			Seed:        env.Config.Seed,
		},
	}
	if b := pool.RetryBudget(); b != nil {
		r.Budget = b
	}
	cr := &crawler.Crawler{Fetcher: r, Config: cfg, Pool: pool}
	archive, fr, err := cr.Crawl(ctx, landings)
	rs := r.Stats()
	env.metrics.Fetch.BudgetDenied.Add(int64(rs.BudgetDenied))
	tally := metrics.CrawlTally{
		RetriesByKind:     rs.RetriesByKind,
		FrontierTruncated: fr.Truncated,
		URLsByDepth:       fr.AdmittedByDepth,
	}
	if injector != nil {
		tally.Injections = injector.Injections()
	}
	return archive, tally, err
}

// candidate indexes an archive entry admitted to annotation, with the
// §3.3 method that admitted it. Candidates index into the archive
// rather than copying entries: the annotation fan-out only needs to
// read them, and the archive is immutable once the crawl returns.
type candidate struct {
	idx    int
	method govclass.URLMethod
}

// classifyEntries runs the §3.3 classifier over a crawl archive,
// splitting usable entries into annotation candidates and tallying
// classification outcomes, which feed the per-country accounting
// identity (Attempted == Records + Failures + Discarded + Unusable).
//
// Method tallies skip the landing seeds — they are study inputs, not
// crawl discoveries — with one deliberate exception: discarded entries
// count unconditionally. The coverage identity counts every discarded
// entry, landing or not, and the ledger derives each country's
// Unusable count from it, so gating the discarded tally behind the
// landing check (as the other methods are gated) would skew the ledger
// whenever a landing URL itself classified as discarded.
func classifyEntries(classifier *govclass.URLClassifier, entries []har.Entry, landingSet map[string]bool) (candidates []candidate, methods map[govclass.URLMethod]int) {
	methods = make(map[govclass.URLMethod]int)
	for i := range entries {
		entry := &entries[i]
		// Failure covers the degraded-but-200 cases (truncation): an
		// entry is either a coverage loss or a record, never both.
		if entry.Status != 200 || entry.Failure != "" {
			continue // a failure, or e.g. a 404: healthy fetch, no usable body
		}
		method := classifier.Classify(entry.Host)
		if method == govclass.MethodDiscarded {
			methods[method]++
			continue
		}
		if !landingSet[entry.URL] {
			methods[method]++
		}
		candidates = append(candidates, candidate{idx: i, method: method})
	}
	return candidates, methods
}

// runCountry performs the §3 pipeline for one country; every fetch and
// annotation runs on the shared pool. Collection failures degrade
// gracefully: an unvalidatable vantage yields a Failed stats entry
// (the study continues without the country), and per-URL failures
// classify into the stats' coverage taxonomy instead of vanishing.
// The returned countryDone carries the crawl's tally row; wall-clock
// timings go to the study registry, which never feeds golden
// comparisons.
func (env *Env) runCountry(ctx context.Context, c *world.Country, pool *sched.Pool) (*countryDone, error) {
	cfg := env.Config
	landings := env.Estate.LandingURLs[c.Code]
	stats := &dataset.CountryStats{
		Country:     c.Code,
		Region:      c.Region,
		LandingURLs: len(landings),
	}

	pm := &env.metrics.Pipeline // study-level: wall-clock timings only
	var timings metrics.CountryTimings

	// §3.2: connect through an in-country VPN vantage and validate its
	// claimed location before trusting it; reconnect on failure.
	stageStart := runtimeNow()
	vp, attempts, flaps, vErr := env.connectVantage(c)
	timings.Vantage = runtimeSince(stageStart)
	stats.VantageAttempts = attempts
	if vErr != nil {
		stats.Failed = true
		stats.FailureReason = fmt.Sprintf("vantage validation: %v", vErr)
		pm.RecordCountryTimings(c.Code, timings)
		pm.ObserveStage("vantage", timings.Vantage)
		d := &countryDone{code: c.Code, stats: stats}
		addFlaps(&d.tally, flaps)
		return d, nil
	}

	// The country's page trees and certificates are built on its first
	// crawl, not in NewEnv; building here, before any fetch, times the
	// build on its own.
	stageStart = runtimeNow()
	env.Estate.BuildCountry(c.Code)
	timings.Estate = runtimeSince(stageStart)

	stageStart = runtimeNow()
	archive, tally, err := env.crawl(ctx, pool, vp.Fetcher, crawler.Config{
		MaxDepth: cfg.CrawlDepth,
		MaxURLs:  cfg.MaxURLsPerCrawl,
		Country:  c.Code,
		VPN:      vp.VPN,
	}, landings)
	timings.Crawl = runtimeSince(stageStart)
	if err != nil {
		return nil, err
	}
	addFlaps(&tally, flaps)

	// Coverage accounting: every crawled URL either produced a usable
	// entry or a classified failure.
	stats.Attempted = len(archive.Entries)
	for i := range archive.Entries {
		if f := archive.Entries[i].Failure; f != "" {
			stats.AddFailure(f)
		}
	}

	// §3.3: identify internal government URLs.
	stageStart = runtimeNow()
	classifier := env.urlClassifier(c)
	landingSet := make(map[string]bool, len(landings))
	for _, l := range landings {
		landingSet[l] = true
	}
	candidates, methods := classifyEntries(classifier, archive.Entries, landingSet)
	timings.Classify = runtimeSince(stageStart)

	// Candidates are sorted by URL before annotation, so records come
	// out in their canonical per-country (Country, URL) order and the
	// merge sink's concatenation keeps the dataset globally sorted. The
	// crawl visits each URL once, so URL order is total. Sorting the
	// 16-byte candidates is far cheaper than sorting the records.
	slices.SortFunc(candidates, func(a, b candidate) int {
		return strings.Compare(archive.Entries[a.idx].URL, archive.Entries[b.idx].URL)
	})

	// Annotation fans out through the same bounded pool as the fetches;
	// workers write into their own index so assembly order stays the
	// sorted candidate order, not completion order. Records are then
	// compacted in place — the fan-out buffer is the result slice.
	recs := make([]dataset.URLRecord, len(candidates))
	errs := make([]error, len(candidates))
	stageStart = runtimeNow()
	pool.Each(ctx, len(candidates), func(i int) {
		recs[i], errs[i] = env.annotate(c, archive.Entries[candidates[i].idx])
	})
	timings.Annotate = runtimeSince(stageStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Compaction also tallies each failed hostname's lookups, the input
	// sharedLedger needs to count the resolution cache's negative
	// entries and hits.
	records := recs[:0]
	resolved := make(map[string]bool)
	lookups := make(map[string]int64)
	for i := range recs {
		host := archive.Entries[candidates[i].idx].Host
		if errs[i] == nil {
			resolved[host] = true
			recs[i].Method = string(candidates[i].method)
			records = append(records, recs[i])
			continue
		}
		// Unresolvable hostnames drop out of the records, as in any
		// crawl — but no longer silently: resolution failures are
		// coverage losses too.
		lookups[host]++
		kind := fetch.ClassifyError(errs[i])
		if kind == fetch.FailOther {
			kind = fetch.FailDNS // annotation errors are resolution failures
		}
		stats.AddFailure(string(kind))
	}
	var failedHosts []checkpoint.HostOutcome
	for host, n := range lookups {
		failedHosts = append(failedHosts, checkpoint.HostOutcome{Host: host, Lookups: n})
	}
	sort.Slice(failedHosts, func(i, j int) bool { return failedHosts[i].Host < failedHosts[j].Host })

	stats.InternalURLs = methods[govclass.MethodTLD] + methods[govclass.MethodDomain] + methods[govclass.MethodSAN]
	stats.Hostnames = len(resolved)
	for _, n := range tally.RetriesByKind {
		stats.Retries += int(n)
	}
	pm.RecordCountryTimings(c.Code, timings)
	pm.ObserveStage("vantage", timings.Vantage)
	pm.ObserveStage("estate", timings.Estate)
	pm.ObserveStage("crawl", timings.Crawl)
	pm.ObserveStage("classify", timings.Classify)
	pm.ObserveStage("annotate", timings.Annotate)
	return &countryDone{
		code: c.Code, stats: stats, records: records,
		methods: methods, failed: failedHosts, tally: tally,
	}, nil
}

// annotate resolves one crawled URL to its serving infrastructure
// (Table 2) and validated location. Resolution goes through the
// study-wide cache, so each distinct hostname — resolvable or not — is
// looked up once across all countries.
func (env *Env) annotate(c *world.Country, entry har.Entry) (dataset.URLRecord, error) {
	rec := dataset.URLRecord{
		URL:     entry.URL,
		Host:    entry.Host,
		Country: c.Code,
		Region:  c.Region,
		Bytes:   entry.BodySize,
		Depth:   entry.Depth,
	}

	ip, wrec, err := env.resolutions.resolve(entry.Host, env.resolveHost)
	if err != nil {
		return rec, err
	}
	rec.IP = ip
	rec.ASN = wrec.ASN
	rec.Org = wrec.Org
	rec.RegCountry = wrec.Country
	if site := env.Estate.Site(entry.Host); site != nil {
		rec.HTTPSValid = site.HTTPSValid
	}

	// §3.5: geolocate and validate.
	if env.Manycast.IsAnycast(rec.IP) {
		rec.Anycast = true
		v := env.geolocateAnycast(c, rec.IP)
		rec.ServeCountry, rec.GeoMethod = v.Country, string(v.Method)
	} else {
		v := env.geolocateUnicast(rec.IP)
		rec.ServeCountry, rec.GeoMethod = v.Country, string(v.Method)
	}
	return rec, nil
}

func (env *Env) geolocateAnycast(c *world.Country, ip netip.Addr) probing.Verdict {
	if env.Config.TrustIPInfo {
		return env.trustIPInfoVerdict(ip, true)
	}
	return env.Prober.GeolocateAnycast(c, ip)
}

func (env *Env) geolocateUnicast(ip netip.Addr) probing.Verdict {
	if env.Config.TrustIPInfo {
		return env.trustIPInfoVerdict(ip, false)
	}
	return env.Prober.GeolocateUnicast(ip)
}

func (env *Env) trustIPInfoVerdict(ip netip.Addr, anycast bool) probing.Verdict {
	v := probing.Verdict{Addr: ip, Anycast: anycast, Method: "IPINFO"}
	if e, ok := env.IPInfo.Lookup(ip); ok {
		v.Country = e.Country
	}
	return v
}

// urlClassifier builds the §3.3 classifier for one country.
func (env *Env) urlClassifier(c *world.Country) *govclass.URLClassifier {
	landingHosts := make(map[string]bool)
	for _, l := range env.Estate.LandingURLs[c.Code] {
		landingHosts[har.HostOf(l)] = true
	}
	sanHosts := map[string]string{}
	if !env.Config.DisableSAN {
		for _, s := range env.Estate.GovSites(c.Code) {
			if s.Cert == nil {
				continue
			}
			for _, san := range s.Cert.SANs {
				sanHosts[san] = s.Cert.Subject
			}
		}
	}
	return &govclass.URLClassifier{
		LandingHosts: landingHosts,
		SANHosts:     sanHosts,
		VerifySAN: func(host string) bool {
			// The manual-verification oracle: a SAN hostname survives
			// only when it genuinely belongs to the government estate.
			site := env.Estate.Site(host)
			return site != nil && site.Kind != webgen.KindContractor && site.Kind != webgen.KindTopsite
		},
	}
}
