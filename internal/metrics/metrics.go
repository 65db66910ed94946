// Package metrics is the pipeline's per-stage instrumentation: a
// low-overhead registry of atomic counters, gauges with high-water
// marks, and duration histograms, threaded through the scheduler, the
// single-flight caches, the merge sink, the shard supervisor and the
// serving daemon. Large-scale crawl-measurement systems (Akiwate et
// al.'s DNS dependency studies, Habib et al.'s longitudinal hosting
// census) treat per-stage accounting as the precondition for scaling
// collection; this package is that seam.
//
// The snapshot draws one hard line, enforced by a reflection test:
//
//   - The Deterministic half — task counts, cache hits/misses,
//     retries, fault injections, failure kinds, frontier admissions —
//     is a pure function of (seed, fault seed, profile). Nothing
//     records it live: the pipeline computes it once from the
//     assembled study and stores it with SetDeterministic, so equal
//     seeds give byte-identical halves at any concurrency shape, and
//     across fresh, resumed and sharded runs alike.
//
//   - Runtime observations — wall-clock durations, queue-depth and
//     occupancy high-water marks, single-flight coalesce counts,
//     retry-budget denials — depend on worker interleaving and the
//     host machine. The registry records them live; they are reported
//     for operators but excluded from golden comparisons.
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

// Registry is the study-wide metrics root. One registry serves a whole
// run: every pool, cache and server the run builds records its runtime
// observations into the same sub-structs, and the run stores its
// deterministic ledger once, after assembly — so the snapshot is the
// study's ledger, not one component's.
type Registry struct {
	Sched    SchedMetrics
	Cache    CacheMetrics
	Geo      GeoMetrics
	Fetch    FetchMetrics
	Pipeline PipelineMetrics
	Shard    ShardMetrics
	Serve    ServeMetrics

	ledger atomic.Pointer[Deterministic]
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{}
}

// SetDeterministic stores the finished deterministic ledger, which
// every later Snapshot reports. The ledger must not be modified after
// the call.
func (r *Registry) SetDeterministic(d Deterministic) { r.ledger.Store(&d) }

// SchedMetrics instruments sched.Pool: task submissions, queue
// pressure and occupancy depend on which workers were free, so all of
// it is runtime.
type SchedMetrics struct {
	TasksSubmitted Counter   // closures enqueued on the worker channel
	QueueDepth     Gauge     // queued-but-unstarted tasks, with high-water
	WorkersBusy    Gauge     // workers executing a task, with high-water
	QueueWait      Histogram // enqueue-to-start latency
}

// CacheMetrics instruments a single-flight cache: Coalesced counts the
// non-creating lookups that arrived while the entry was still being
// computed — a pure interleaving artifact (every coalesce is also a
// hit in the deterministic ledger, which the pipeline derives from the
// assembled dataset).
type CacheMetrics struct {
	Coalesced Counter // hits that waited on an in-flight computation
}

// GeoMetrics instruments the two geolocation verdict caches of the
// probing package. Unicast keys on the address alone (verdicts are
// vantage-independent); anycast verification keys on (vantage, addr).
type GeoMetrics struct {
	Unicast CacheMetrics
	Anycast CacheMetrics
}

// FetchMetrics instruments the retrying fetch stack. Budget denials
// only occur when a binding retry budget races workers for the last
// tokens, which is exactly the documented determinism trade-off — so
// they are runtime.
type FetchMetrics struct {
	BudgetDenied Counter // retries skipped because the study budget ran dry
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
// — every crawled URL lands in exactly one bucket. The ledger derives
// Unusable from it; the other fields are counted.
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

// PipelineMetrics instruments Env.Run: the wall-clock per-stage and
// per-country timings, and the merge sink's occupancy.
type PipelineMetrics struct {
	// InFlight is the records buffered in the merge sink waiting for an
	// earlier country to finish. Which countries park depends on worker
	// interleaving, so the high-water mark is a runtime observation —
	// but its bound (strictly below the study's total record count) is
	// the streaming-assembly guarantee.
	InFlight Gauge

	mu      sync.Mutex
	timings map[string]CountryTimings
	stages  map[string]*Histogram
}

// RecordsInFlight moves the records-in-flight level by delta: positive
// when a completed country's records park in the merge sink, negative
// when they flush into the dataset. Nil-safe.
func (m *PipelineMetrics) RecordsInFlight(delta int64) {
	if m != nil {
		m.InFlight.Add(delta)
	}
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
