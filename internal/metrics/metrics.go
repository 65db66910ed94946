// Package metrics is the pipeline's per-stage instrumentation: a
// low-overhead registry of atomic counters, gauges with high-water
// marks, and duration histograms, threaded through the scheduler, the
// resolution cache, the fetch/retry stack, the fault injector, and the
// crawler. Large-scale crawl-measurement systems (Akiwate et al.'s DNS
// dependency studies, Habib et al.'s longitudinal hosting census)
// treat per-stage accounting as the precondition for scaling
// collection; this package is that seam for the sharding and
// streaming-assembly work the ROADMAP names.
//
// The registry draws one hard line, enforced by a reflection test:
//
//   - Deterministic counters — task counts, cache hits/misses,
//     retries, fault injections, failure kinds, frontier admissions —
//     are pure functions of (seed, fault seed, profile). Equal seeds
//     must produce byte-identical deterministic snapshots at any
//     CountryConcurrency/FetchConcurrency shape, so they are safe for
//     golden comparisons and chaos replay checks.
//
//   - Runtime observations — wall-clock durations, queue-depth and
//     occupancy high-water marks, single-flight coalesce counts —
//     depend on worker interleaving and the host machine. They are
//     reported for operators but excluded from golden comparisons.
//
// Every recording method is safe for concurrent use, and the
// sub-registry helper methods tolerate a nil receiver so call sites in
// the hot path read as one line with no metrics-enabled branching.
package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load reads the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic level with a high-water mark: queue depth, busy
// workers. Add moves the level; the high-water mark records the
// largest level ever observed.
type Gauge struct{ cur, high atomic.Int64 }

// Inc raises the level by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec lowers the level by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Add moves the level by n, updating the high-water mark on the way
// up.
func (g *Gauge) Add(n int64) {
	v := g.cur.Add(n)
	if n <= 0 {
		return
	}
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.cur.Load() }

// HighWater reads the largest level ever observed.
func (g *Gauge) HighWater() int64 { return g.high.Load() }

// histBounds are the histogram bucket upper bounds. The synthetic web
// answers in microseconds and chaos delays reach tens of milliseconds,
// so the range runs three decades below and above a millisecond.
var histBounds = [...]time.Duration{
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// Histogram is a fixed-bucket duration histogram with count, sum and
// max. It belongs to the runtime (wall-clock) side of the snapshot by
// construction — durations are never deterministic.
type Histogram struct {
	count, sum, max atomic.Int64
	buckets         [len(histBounds) + 1]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		m := h.max.Load()
		if int64(d) <= m || h.max.CompareAndSwap(m, int64(d)) {
			break
		}
	}
	for i, b := range histBounds {
		if d <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(histBounds)].Add(1)
}

// Count reads how many durations were observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// snapshot freezes the histogram.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		Max:   time.Duration(h.max.Load()),
	}
	if s.Count > 0 {
		s.Mean = s.Sum / time.Duration(s.Count)
	}
	for i := range histBounds {
		s.Buckets = append(s.Buckets, Bucket{LE: histBounds[i], N: h.buckets[i].Load()})
	}
	s.Buckets = append(s.Buckets, Bucket{LE: -1, N: h.buckets[len(histBounds)].Load()})
	return s
}

// Vec is a set of counters keyed by a small label set (failure kinds,
// fault kinds). Labels materialise on first use, so a label that never
// fires never appears in the snapshot — for a fixed seed the label set
// is itself deterministic.
type Vec struct {
	mu sync.Mutex
	m  map[string]*Counter
}

// Add adds n to the label's counter, creating it on first use.
func (v *Vec) Add(label string, n int64) {
	v.counter(label).Add(n)
}

func (v *Vec) counter(label string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.m == nil {
		v.m = make(map[string]*Counter)
	}
	c := v.m[label]
	if c == nil {
		c = &Counter{}
		v.m[label] = c
	}
	return c
}

// Load reads one label's count (0 when the label never fired).
func (v *Vec) Load(label string) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.m[label]; c != nil {
		return c.Load()
	}
	return 0
}

// snapshot copies the vec into a plain map.
func (v *Vec) snapshot() map[string]int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(v.m))
	for k, c := range v.m {
		out[k] = c.Load()
	}
	return out
}

// maxDepthTrack bounds the per-depth URL counters; crawls run at the
// paper's depth 7, so 16 slots leave headroom for depth overrides.
const maxDepthTrack = 16

// Registry is the study-wide metrics root. One registry serves a whole
// run: every Pool, Retrier, fault injector, crawler and cache the run
// assembles records into the same sub-structs, so the snapshot is the
// study's ledger, not one component's.
type Registry struct {
	Sched    SchedMetrics
	Cache    CacheMetrics
	Geo      GeoMetrics
	Fetch    FetchMetrics
	Faults   FaultMetrics
	Crawl    CrawlMetrics
	Pipeline PipelineMetrics
	Shard    ShardMetrics
	Serve    ServeMetrics
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{}
}

// SchedMetrics instruments sched.Pool. Item counts are deterministic
// (every index of every EachWith batch runs exactly once in a completed
// run); task submissions, queue pressure and occupancy depend on which
// workers were free and belong to the runtime side.
type SchedMetrics struct {
	// Deterministic.
	ItemsScheduled Counter // indexes handed to EachWith across all batches
	ItemsRun       Counter // indexes actually executed

	// Runtime (scheduling-shape dependent).
	TasksSubmitted Counter   // closures enqueued on the worker channel
	QueueDepth     Gauge     // queued-but-unstarted tasks, with high-water
	WorkersBusy    Gauge     // workers executing a task, with high-water
	QueueWait      Histogram // enqueue-to-start latency
}

// CacheMetrics instruments the resolution cache. Lookups, hits and
// misses are deterministic: the set of hostnames resolved and the
// number of lookups per hostname are pure functions of the seed, even
// though which worker performs the miss is not. The pipeline derives
// them once from the assembled dataset and adds them through
// AddDeterministic; the cache itself records only Coalesced, the
// non-creating lookups that arrived while the resolution was still in
// flight — a pure interleaving artifact, so it lives on the runtime
// side (every coalesce is also counted as a hit).
type CacheMetrics struct {
	// Deterministic.
	Lookups         Counter // resolve calls
	Hits            Counter // lookups that found an existing entry
	Misses          Counter // lookups that created the entry
	NegativeEntries Counter // distinct hostnames whose resolution failed
	NegativeHits    Counter // hits that returned a cached failure

	// Runtime.
	Coalesced Counter // hits that waited on an in-flight resolution
}

// GeoMetrics instruments the two geolocation verdict caches of the
// probing package. Each half follows the CacheMetrics split: the
// address multiset geolocated during a run is a pure function of the
// seed, so lookups, hits, misses and the negative (UR/EX verdict)
// counts are deterministic; coalesce counts are interleaving
// artifacts. Unicast keys on the address alone (verdicts are
// vantage-independent); anycast verification keys on (vantage, addr).
type GeoMetrics struct {
	Unicast CacheMetrics
	Anycast CacheMetrics
}

// FetchMetrics instruments the retrying fetch stack. Attempt and retry
// counts are deterministic because retry decisions hash (seed, url,
// attempt); budget denials only occur when a binding retry budget
// races workers for the last tokens, which is exactly the documented
// determinism trade-off — so they are runtime.
type FetchMetrics struct {
	// Deterministic.
	Attempts      Counter // individual fetch attempts issued
	Retries       Counter // attempts beyond each URL's first
	RetriesByKind Vec     // retries keyed by the failure kind that triggered them

	// Runtime.
	BudgetDenied Counter // retries skipped because the study budget ran dry
}

// RecordAttempt counts one fetch attempt. Nil-safe.
func (m *FetchMetrics) RecordAttempt() {
	if m != nil {
		m.Attempts.Inc()
	}
}

// RecordRetry counts one retry triggered by the given failure kind.
// Nil-safe.
func (m *FetchMetrics) RecordRetry(kind string) {
	if m != nil {
		m.Retries.Inc()
		m.RetriesByKind.Add(kind, 1)
	}
}

// RecordBudgetDenied counts one retry denied by the study budget.
// Nil-safe.
func (m *FetchMetrics) RecordBudgetDenied() {
	if m != nil {
		m.BudgetDenied.Inc()
	}
}

// FaultMetrics counts injected faults by kind. Injection decisions
// hash (fault seed, subject, attempt) and attempt sequences are
// themselves deterministic, so the whole ledger is golden-comparable.
type FaultMetrics struct {
	Injections Vec // injected faults by kind (timeout, reset, 5xx, …)
}

// Inject counts one injected fault of the given kind. Nil-safe.
func (m *FaultMetrics) Inject(kind string) {
	if m != nil {
		m.Injections.Add(kind, 1)
	}
}

// CrawlMetrics instruments frontier admission. Admission is the
// deterministic heart of the crawler — each level is deduplicated,
// sorted and capped before any fetch — so everything here is
// deterministic.
type CrawlMetrics struct {
	FrontierAdmitted  Counter // URLs admitted across all levels and crawls
	FrontierTruncated Counter // candidate URLs evicted by the MaxURLs cap

	depths [maxDepthTrack]Counter // admitted URLs per depth level
}

// RecordLevel counts one admitted frontier level at the given depth,
// plus the candidates the MaxURLs cap evicted from it. Nil-safe.
func (m *CrawlMetrics) RecordLevel(depth int, admitted, truncated int64) {
	if m == nil {
		return
	}
	m.FrontierAdmitted.Add(admitted)
	m.FrontierTruncated.Add(truncated)
	if admitted <= 0 {
		return
	}
	if depth < 0 {
		depth = 0
	}
	if depth >= maxDepthTrack {
		depth = maxDepthTrack - 1
	}
	m.depths[depth].Add(admitted)
}

// addURLsByDepth folds a snapshot's per-depth admission counts back
// into the live counters — the inverse of urlsByDepth, used when a
// checkpointed country's deterministic contribution is replayed.
func (m *CrawlMetrics) addURLsByDepth(urls []int64) {
	for depth, n := range urls {
		if depth >= maxDepthTrack {
			depth = maxDepthTrack - 1
		}
		m.depths[depth].Add(n)
	}
}

// urlsByDepth trims the per-depth counters to the deepest nonzero
// level.
func (m *CrawlMetrics) urlsByDepth() []int64 {
	last := -1
	for i := range m.depths {
		if m.depths[i].Load() > 0 {
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	out := make([]int64, last+1)
	for i := range out {
		out[i] = m.depths[i].Load()
	}
	return out
}

// ShardMetrics instruments the shard supervisor and the checkpoint
// integrity machinery. Everything here is runtime by construction:
// restarts count real process crashes and quarantines count real file
// damage, neither of which is a function of the seed — so none of it
// ever feeds golden comparisons.
type ShardMetrics struct {
	Restarts    Counter // crashed shard workers restarted by the supervisor
	Exhausted   Counter // shards that ran out of restart budget
	Quarantined Counter // checkpoint files quarantined at load
}

// RecordRestart counts one crashed worker restarted. Nil-safe.
func (m *ShardMetrics) RecordRestart() {
	if m != nil {
		m.Restarts.Inc()
	}
}

// RecordExhausted counts one shard whose restart budget ran dry.
// Nil-safe.
func (m *ShardMetrics) RecordExhausted() {
	if m != nil {
		m.Exhausted.Inc()
	}
}

// RecordQuarantined counts checkpoint files quarantined during a load.
// Nil-safe.
func (m *ShardMetrics) RecordQuarantined(n int64) {
	if m != nil && n > 0 {
		m.Quarantined.Add(n)
	}
}

// ServeMetrics instruments the serving daemon (internal/serve):
// per-endpoint request and latency accounting, the versioned response
// cache's temperature, handler occupancy, and snapshot reloads.
// Everything here is runtime by construction — request traffic, cache
// hits and reload outcomes are properties of the clients driving the
// daemon and of operator actions, not of the study seed — so none of
// it ever feeds golden comparisons.
type ServeMetrics struct {
	Requests       Vec     // served requests by endpoint
	Statuses       Vec     // responses by HTTP status code
	CacheHits      Counter // responses answered from the versioned cache
	CacheMisses    Counter // responses that rendered the body
	CacheCoalesced Counter // hits that waited on an in-flight render
	NotModified    Counter // conditional requests answered 304 by ETag match
	InFlight       Gauge   // requests currently inside a handler, with high-water
	Reloads        Counter // snapshot swaps that landed
	ReloadFailures Counter // reload attempts refused; the old snapshot kept serving

	mu      sync.Mutex
	latency map[string]*Histogram // per-endpoint request latency
}

// RecordRequest counts one served request and its wall-clock latency
// under the endpoint's histogram. Nil-safe.
func (m *ServeMetrics) RecordRequest(endpoint string, status int, d time.Duration) {
	if m == nil {
		return
	}
	m.Requests.Add(endpoint, 1)
	m.Statuses.Add(fmt.Sprint(status), 1)
	m.mu.Lock()
	if m.latency == nil {
		m.latency = make(map[string]*Histogram)
	}
	h := m.latency[endpoint]
	if h == nil {
		h = &Histogram{}
		m.latency[endpoint] = h
	}
	m.mu.Unlock()
	h.Observe(d)
}

// RecordCacheHit counts one cache hit; coalesced marks a hit that
// blocked on another request's in-flight render. Nil-safe.
func (m *ServeMetrics) RecordCacheHit(coalesced bool) {
	if m == nil {
		return
	}
	m.CacheHits.Inc()
	if coalesced {
		m.CacheCoalesced.Inc()
	}
}

// RecordNotModified counts one conditional request answered 304: the
// client's If-None-Match matched the response's strong ETag, so no
// body was sent. Nil-safe.
func (m *ServeMetrics) RecordNotModified() {
	if m != nil {
		m.NotModified.Inc()
	}
}

// RecordCacheMiss counts one cache fill. Nil-safe.
func (m *ServeMetrics) RecordCacheMiss() {
	if m != nil {
		m.CacheMisses.Inc()
	}
}

// RecordReload counts one reload attempt by outcome. Nil-safe.
func (m *ServeMetrics) RecordReload(ok bool) {
	if m == nil {
		return
	}
	if ok {
		m.Reloads.Inc()
	} else {
		m.ReloadFailures.Inc()
	}
}

func (m *ServeMetrics) latencySnapshots() map[string]HistogramSnapshot {
	m.mu.Lock()
	hists := make(map[string]*Histogram, len(m.latency))
	for k, h := range m.latency {
		hists[k] = h
	}
	m.mu.Unlock()
	if len(hists) == 0 {
		return nil
	}
	out := make(map[string]HistogramSnapshot, len(hists))
	for k, h := range hists {
		out[k] = h.snapshot()
	}
	return out
}

// CountryCounters is one country's deterministic accounting row. The
// identity every completed country satisfies is
//
//	Attempted == Records + Failures + Discarded + Unusable
//
// — every crawled URL lands in exactly one bucket, which is what the
// invariant suite asserts from the snapshot.
type CountryCounters struct {
	Attempted       int64 // URLs fetched during the crawl
	Records         int64 // annotated records produced
	Failures        int64 // fetch + resolution failures (taxonomy total)
	Discarded       int64 // healthy fetches the §3.3 classifier rejected
	Unusable        int64 // healthy fetches with a non-200, non-failure status
	Retries         int64 // retry attempts the country's fetch stack spent
	VantageAttempts int64 // VPN connections to obtain a validated egress
}

// CountryTimings is one country's wall-clock stage durations. Estate
// is the build of the country's page trees and certificates; it is 0
// for countries loaded from a checkpoint, which never build them.
type CountryTimings struct {
	Vantage  time.Duration
	Estate   time.Duration
	Crawl    time.Duration
	Classify time.Duration
	Annotate time.Duration
}

// PipelineMetrics instruments Env.Run: study-level deterministic
// totals, one deterministic counter row per country, and the
// wall-clock per-stage and per-country timings.
type PipelineMetrics struct {
	// Deterministic.
	Annotations     Counter // annotate calls (gov + topsites)
	Records         Counter // government records produced
	Failures        Counter // failure-taxonomy total across countries
	FailuresByKind  Vec     // failures keyed by taxonomy bucket
	CountriesRun    Counter // countries the pipeline processed
	CountriesFailed Counter // countries with no validated vantage

	// Runtime: records buffered in the merge sink waiting for an
	// earlier country to finish. Which countries park depends on worker
	// interleaving, so the high-water mark is a runtime observation —
	// but its bound (strictly below the study's total record count) is
	// the streaming-assembly guarantee.
	InFlight Gauge

	mu        sync.Mutex
	countries map[string]CountryCounters
	timings   map[string]CountryTimings
	stages    map[string]*Histogram
}

// RecordsInFlight moves the records-in-flight level by delta: positive
// when a completed country's records park in the merge sink, negative
// when they flush into the dataset. Nil-safe.
func (m *PipelineMetrics) RecordsInFlight(delta int64) {
	if m != nil {
		m.InFlight.Add(delta)
	}
}

// RecordAnnotation counts one annotate call. Nil-safe.
func (m *PipelineMetrics) RecordAnnotation() {
	if m != nil {
		m.Annotations.Inc()
	}
}

// RecordCountry stores one country's deterministic counter row and
// rolls it into the study totals. Nil-safe.
func (m *PipelineMetrics) RecordCountry(code string, c CountryCounters, failed bool, failures map[string]int) {
	if m == nil {
		return
	}
	m.CountriesRun.Inc()
	if failed {
		m.CountriesFailed.Inc()
	}
	m.Records.Add(c.Records)
	m.Failures.Add(c.Failures)
	//lint:ignore map-order -- Vec.Add is a keyed atomic increment; per-kind adds commute, and the snapshot renders kinds sorted
	for kind, n := range failures {
		m.FailuresByKind.Add(kind, int64(n))
	}
	m.mu.Lock()
	if m.countries == nil {
		m.countries = make(map[string]CountryCounters)
	}
	m.countries[code] = c
	m.mu.Unlock()
}

// RecordCountryTimings stores one country's wall-clock stage
// durations. Nil-safe.
func (m *PipelineMetrics) RecordCountryTimings(code string, t CountryTimings) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.timings == nil {
		m.timings = make(map[string]CountryTimings)
	}
	m.timings[code] = t
	m.mu.Unlock()
}

// ObserveStage records one wall-clock duration for a named pipeline
// stage (vantage, crawl, classify, annotate, topsites, study).
// Nil-safe.
func (m *PipelineMetrics) ObserveStage(stage string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.stages == nil {
		m.stages = make(map[string]*Histogram)
	}
	h := m.stages[stage]
	if h == nil {
		h = &Histogram{}
		m.stages[stage] = h
	}
	m.mu.Unlock()
	h.Observe(d)
}

// AddDeterministic folds a frozen deterministic snapshot into the live
// registry. This is how checkpointed work re-enters the ledger: a
// resumed run loads each stored country's contribution and adds it
// here instead of re-measuring, and a streaming run absorbs each
// country's fork registry at flush time. Counter adds commute, so the
// result is independent of the order contributions arrive — the
// property the byte-identical-resume contract leans on. Nil-safe.
func (r *Registry) AddDeterministic(d Deterministic) {
	if r == nil {
		return
	}
	r.Sched.ItemsScheduled.Add(d.Sched.ItemsScheduled)
	r.Sched.ItemsRun.Add(d.Sched.ItemsRun)

	addCache := func(m *CacheMetrics, c CacheCounters) {
		m.Lookups.Add(c.Lookups)
		m.Hits.Add(c.Hits)
		m.Misses.Add(c.Misses)
		m.NegativeEntries.Add(c.NegativeEntries)
		m.NegativeHits.Add(c.NegativeHits)
	}
	addCache(&r.Cache, d.Cache)
	addCache(&r.Geo.Unicast, d.Geo.Unicast)
	addCache(&r.Geo.Anycast, d.Geo.Anycast)

	r.Fetch.Attempts.Add(d.Fetch.Attempts)
	r.Fetch.Retries.Add(d.Fetch.Retries)
	//lint:ignore map-order -- Vec.Add is a keyed atomic increment; per-kind adds commute, and the snapshot renders kinds sorted
	for kind, n := range d.Fetch.RetriesByKind {
		r.Fetch.RetriesByKind.Add(kind, n)
	}
	//lint:ignore map-order -- Vec.Add is a keyed atomic increment; per-kind adds commute, and the snapshot renders kinds sorted
	for kind, n := range d.Faults.Injections {
		r.Faults.Injections.Add(kind, n)
	}

	r.Crawl.FrontierAdmitted.Add(d.Crawl.FrontierAdmitted)
	r.Crawl.FrontierTruncated.Add(d.Crawl.FrontierTruncated)
	r.Crawl.addURLsByDepth(d.Crawl.URLsByDepth)

	p := &r.Pipeline
	p.Annotations.Add(d.Pipeline.Annotations)
	p.Records.Add(d.Pipeline.Records)
	p.Failures.Add(d.Pipeline.Failures)
	//lint:ignore map-order -- Vec.Add is a keyed atomic increment; per-kind adds commute, and the snapshot renders kinds sorted
	for kind, n := range d.Pipeline.FailuresByKind {
		p.FailuresByKind.Add(kind, n)
	}
	p.CountriesRun.Add(d.Pipeline.CountriesRun)
	p.CountriesFailed.Add(d.Pipeline.CountriesFailed)
	if len(d.Pipeline.Countries) > 0 {
		p.mu.Lock()
		if p.countries == nil {
			p.countries = make(map[string]CountryCounters)
		}
		for code, c := range d.Pipeline.Countries {
			p.countries[code] = c
		}
		p.mu.Unlock()
	}
}

func (m *PipelineMetrics) countrySnapshots() map[string]CountryCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.countries) == 0 {
		return nil
	}
	out := make(map[string]CountryCounters, len(m.countries))
	for k, v := range m.countries {
		out[k] = v
	}
	return out
}

func (m *PipelineMetrics) timingSnapshots() map[string]CountryTimings {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.timings) == 0 {
		return nil
	}
	out := make(map[string]CountryTimings, len(m.timings))
	for k, v := range m.timings {
		out[k] = v
	}
	return out
}

func (m *PipelineMetrics) stageSnapshots() map[string]HistogramSnapshot {
	m.mu.Lock()
	hists := make(map[string]*Histogram, len(m.stages))
	for k, h := range m.stages {
		hists[k] = h
	}
	m.mu.Unlock()
	if len(hists) == 0 {
		return nil
	}
	out := make(map[string]HistogramSnapshot, len(hists))
	for k, h := range hists {
		out[k] = h.snapshot()
	}
	return out
}
