package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Snapshot is a frozen view of a registry, split along the line the
// package doc draws: Deterministic is golden-comparable (equal seeds
// give equal bytes at any concurrency shape), Runtime is wall-clock
// and scheduling-shape observation. TestDeterministicSnapshotHasNoTimings
// enforces that no duration-typed field can ever migrate into the
// Deterministic half.
type Snapshot struct {
	Deterministic Deterministic `json:"deterministic"`
	Runtime       Runtime       `json:"runtime"`
}

// Deterministic is the golden-comparable half of the snapshot: integer
// counters only, all pure functions of (seed, fault seed, profile).
type Deterministic struct {
	Sched    SchedCounters    `json:"sched"`
	Cache    CacheCounters    `json:"cache"`
	Geo      GeoCounters      `json:"geo"`
	Fetch    FetchCounters    `json:"fetch"`
	Faults   FaultCounters    `json:"faults"`
	Crawl    CrawlCounters    `json:"crawl"`
	Pipeline PipelineCounters `json:"pipeline"`
}

// SchedCounters is the deterministic scheduler slice.
type SchedCounters struct {
	ItemsScheduled int64 `json:"items_scheduled"`
	ItemsRun       int64 `json:"items_run"`
}

// CacheCounters is the deterministic resolution-cache slice.
type CacheCounters struct {
	Lookups         int64 `json:"lookups"`
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	NegativeEntries int64 `json:"negative_entries"`
	NegativeHits    int64 `json:"negative_hits"`
}

// GeoCounters is the deterministic slice of the two geolocation
// verdict caches (probing's unicast and anycast single-flight maps).
type GeoCounters struct {
	Unicast CacheCounters `json:"unicast"`
	Anycast CacheCounters `json:"anycast"`
}

// FetchCounters is the deterministic fetch/retry slice.
type FetchCounters struct {
	Attempts      int64            `json:"attempts"`
	Retries       int64            `json:"retries"`
	RetriesByKind map[string]int64 `json:"retries_by_kind,omitempty"`
}

// FaultCounters is the injected-fault ledger.
type FaultCounters struct {
	Injections map[string]int64 `json:"injections,omitempty"`
}

// CrawlCounters is the deterministic frontier-admission slice.
type CrawlCounters struct {
	FrontierAdmitted  int64   `json:"frontier_admitted"`
	FrontierTruncated int64   `json:"frontier_truncated"`
	URLsByDepth       []int64 `json:"urls_by_depth,omitempty"`
}

// PipelineCounters is the deterministic pipeline slice, with one
// accounting row per country.
type PipelineCounters struct {
	Annotations     int64                      `json:"annotations"`
	Records         int64                      `json:"records"`
	Failures        int64                      `json:"failures"`
	FailuresByKind  map[string]int64           `json:"failures_by_kind,omitempty"`
	CountriesRun    int64                      `json:"countries_run"`
	CountriesFailed int64                      `json:"countries_failed"`
	Countries       map[string]CountryCounters `json:"countries,omitempty"`
}

// Runtime is the wall-clock half: durations, queue pressure,
// occupancy, coalesce counts. Reported, never golden-compared.
type Runtime struct {
	Sched     SchedRuntime                 `json:"sched"`
	Cache     CacheRuntime                 `json:"cache"`
	Geo       GeoRuntime                   `json:"geo"`
	Fetch     FetchRuntime                 `json:"fetch"`
	Pipeline  PipelineRuntime              `json:"pipeline"`
	Shard     ShardRuntime                 `json:"shard"`
	Serve     ServeRuntime                 `json:"serve"`
	Stages    map[string]HistogramSnapshot `json:"stages,omitempty"`
	Countries map[string]CountryTimings    `json:"countries,omitempty"`
}

// SchedRuntime is the scheduling-shape slice.
type SchedRuntime struct {
	TasksSubmitted       int64             `json:"tasks_submitted"`
	QueueDepthHighWater  int64             `json:"queue_depth_high_water"`
	WorkersBusyHighWater int64             `json:"workers_busy_high_water"`
	QueueWait            HistogramSnapshot `json:"queue_wait"`
}

// CacheRuntime is the interleaving-dependent cache slice.
type CacheRuntime struct {
	Coalesced int64 `json:"coalesced"`
}

// GeoRuntime is the interleaving-dependent slice of the geolocation
// caches.
type GeoRuntime struct {
	Unicast CacheRuntime `json:"unicast"`
	Anycast CacheRuntime `json:"anycast"`
}

// FetchRuntime is the budget-race slice.
type FetchRuntime struct {
	BudgetDenied int64 `json:"budget_denied"`
}

// PipelineRuntime is the merge-sink occupancy slice: the peak number
// of records parked in the streaming sink waiting for an earlier
// country. Which countries park depends on interleaving, but the bound
// — strictly below the study's total record count — is the streaming
// memory guarantee.
type PipelineRuntime struct {
	RecordsInFlightHighWater int64 `json:"records_in_flight_high_water"`
}

// ShardRuntime is the crash-recovery slice: restarts and quarantines
// count real-world damage (process crashes, torn files), so they can
// never be deterministic — a healthy run reports zeros.
type ShardRuntime struct {
	Restarts               int64 `json:"restarts"`
	Exhausted              int64 `json:"exhausted"`
	CheckpointsQuarantined int64 `json:"checkpoints_quarantined"`
}

// ServeRuntime is the serving-daemon slice: request traffic, response
// cache temperature, handler occupancy and snapshot reloads — all of
// it driven by clients and operators, never by the seed.
type ServeRuntime struct {
	Requests          map[string]int64             `json:"requests,omitempty"`
	Statuses          map[string]int64             `json:"statuses,omitempty"`
	CacheHits         int64                        `json:"cache_hits"`
	CacheMisses       int64                        `json:"cache_misses"`
	CacheCoalesced    int64                        `json:"cache_coalesced"`
	NotModified       int64                        `json:"not_modified"`
	InFlightHighWater int64                        `json:"in_flight_high_water"`
	Reloads           int64                        `json:"reloads"`
	ReloadFailures    int64                        `json:"reload_failures"`
	Latency           map[string]HistogramSnapshot `json:"latency,omitempty"`
}

// Active reports whether the daemon served anything — the Text render
// skips the serve section for ordinary pipeline runs.
func (s ServeRuntime) Active() bool {
	return len(s.Requests) > 0 || s.Reloads > 0 || s.ReloadFailures > 0
}

// Bucket is one histogram bucket; LE == -1 marks the overflow bucket.
type Bucket struct {
	LE time.Duration `json:"le"`
	N  int64         `json:"n"`
}

// HistogramSnapshot is a frozen duration histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     time.Duration `json:"sum"`
	Mean    time.Duration `json:"mean"`
	Max     time.Duration `json:"max"`
	Buckets []Bucket      `json:"buckets,omitempty"`
}

// Snapshot freezes the registry. Concurrent recording during the call
// is safe; the snapshot is then fully detached from the registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot

	s.Deterministic.Sched = SchedCounters{
		ItemsScheduled: r.Sched.ItemsScheduled.Load(),
		ItemsRun:       r.Sched.ItemsRun.Load(),
	}
	s.Deterministic.Cache = CacheCounters{
		Lookups:         r.Cache.Lookups.Load(),
		Hits:            r.Cache.Hits.Load(),
		Misses:          r.Cache.Misses.Load(),
		NegativeEntries: r.Cache.NegativeEntries.Load(),
		NegativeHits:    r.Cache.NegativeHits.Load(),
	}
	detCache := func(m *CacheMetrics) CacheCounters {
		return CacheCounters{
			Lookups:         m.Lookups.Load(),
			Hits:            m.Hits.Load(),
			Misses:          m.Misses.Load(),
			NegativeEntries: m.NegativeEntries.Load(),
			NegativeHits:    m.NegativeHits.Load(),
		}
	}
	s.Deterministic.Geo = GeoCounters{
		Unicast: detCache(&r.Geo.Unicast),
		Anycast: detCache(&r.Geo.Anycast),
	}
	s.Deterministic.Fetch = FetchCounters{
		Attempts:      r.Fetch.Attempts.Load(),
		Retries:       r.Fetch.Retries.Load(),
		RetriesByKind: r.Fetch.RetriesByKind.snapshot(),
	}
	s.Deterministic.Faults = FaultCounters{
		Injections: r.Faults.Injections.snapshot(),
	}
	s.Deterministic.Crawl = CrawlCounters{
		FrontierAdmitted:  r.Crawl.FrontierAdmitted.Load(),
		FrontierTruncated: r.Crawl.FrontierTruncated.Load(),
		URLsByDepth:       r.Crawl.urlsByDepth(),
	}
	s.Deterministic.Pipeline = PipelineCounters{
		Annotations:     r.Pipeline.Annotations.Load(),
		Records:         r.Pipeline.Records.Load(),
		Failures:        r.Pipeline.Failures.Load(),
		FailuresByKind:  r.Pipeline.FailuresByKind.snapshot(),
		CountriesRun:    r.Pipeline.CountriesRun.Load(),
		CountriesFailed: r.Pipeline.CountriesFailed.Load(),
		Countries:       r.Pipeline.countrySnapshots(),
	}

	s.Runtime.Sched = SchedRuntime{
		TasksSubmitted:       r.Sched.TasksSubmitted.Load(),
		QueueDepthHighWater:  r.Sched.QueueDepth.HighWater(),
		WorkersBusyHighWater: r.Sched.WorkersBusy.HighWater(),
		QueueWait:            r.Sched.QueueWait.snapshot(),
	}
	s.Runtime.Cache = CacheRuntime{Coalesced: r.Cache.Coalesced.Load()}
	s.Runtime.Geo = GeoRuntime{
		Unicast: CacheRuntime{Coalesced: r.Geo.Unicast.Coalesced.Load()},
		Anycast: CacheRuntime{Coalesced: r.Geo.Anycast.Coalesced.Load()},
	}
	s.Runtime.Fetch = FetchRuntime{BudgetDenied: r.Fetch.BudgetDenied.Load()}
	s.Runtime.Pipeline = PipelineRuntime{RecordsInFlightHighWater: r.Pipeline.InFlight.HighWater()}
	s.Runtime.Shard = ShardRuntime{
		Restarts:               r.Shard.Restarts.Load(),
		Exhausted:              r.Shard.Exhausted.Load(),
		CheckpointsQuarantined: r.Shard.Quarantined.Load(),
	}
	s.Runtime.Serve = ServeRuntime{
		Requests:          r.Serve.Requests.snapshot(),
		Statuses:          r.Serve.Statuses.snapshot(),
		CacheHits:         r.Serve.CacheHits.Load(),
		CacheMisses:       r.Serve.CacheMisses.Load(),
		CacheCoalesced:    r.Serve.CacheCoalesced.Load(),
		NotModified:       r.Serve.NotModified.Load(),
		InFlightHighWater: r.Serve.InFlight.HighWater(),
		Reloads:           r.Serve.Reloads.Load(),
		ReloadFailures:    r.Serve.ReloadFailures.Load(),
		Latency:           r.Serve.latencySnapshots(),
	}
	s.Runtime.Stages = r.Pipeline.stageSnapshots()
	s.Runtime.Countries = r.Pipeline.timingSnapshots()
	return s
}

// JSON renders the whole snapshot as indented JSON. Map keys are
// sorted by encoding/json, so equal deterministic halves render equal
// bytes.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// DeterministicJSON renders only the golden-comparable half — the
// bytes the chaos suite asserts are identical across concurrency
// shapes for equal seeds.
func (s Snapshot) DeterministicJSON() ([]byte, error) {
	return json.MarshalIndent(s.Deterministic, "", "  ")
}

// Text renders the snapshot as aligned text: the deterministic ledger
// first, then the wall-clock observations, clearly fenced off from
// golden comparisons.
func (s Snapshot) Text() string {
	var b strings.Builder
	b.WriteString("deterministic counters (byte-identical for equal seeds at any concurrency)\n")
	d := s.Deterministic
	line := func(k string, v int64) { fmt.Fprintf(&b, "  %-36s %d\n", k, v) }
	vec := func(prefix string, m map[string]int64) {
		for _, k := range sortedKeys(m) {
			line(prefix+"["+k+"]", m[k])
		}
	}
	line("sched.items_scheduled", d.Sched.ItemsScheduled)
	line("sched.items_run", d.Sched.ItemsRun)
	line("cache.lookups", d.Cache.Lookups)
	line("cache.hits", d.Cache.Hits)
	line("cache.misses", d.Cache.Misses)
	line("cache.negative_entries", d.Cache.NegativeEntries)
	line("cache.negative_hits", d.Cache.NegativeHits)
	geoDet := func(prefix string, c CacheCounters) {
		line(prefix+".lookups", c.Lookups)
		line(prefix+".hits", c.Hits)
		line(prefix+".misses", c.Misses)
		line(prefix+".negative_entries", c.NegativeEntries)
		line(prefix+".negative_hits", c.NegativeHits)
	}
	geoDet("geo.unicast", d.Geo.Unicast)
	geoDet("geo.anycast", d.Geo.Anycast)
	line("fetch.attempts", d.Fetch.Attempts)
	line("fetch.retries", d.Fetch.Retries)
	vec("fetch.retries", d.Fetch.RetriesByKind)
	vec("faults.injections", d.Faults.Injections)
	line("crawl.frontier_admitted", d.Crawl.FrontierAdmitted)
	line("crawl.frontier_truncated", d.Crawl.FrontierTruncated)
	for depth, n := range d.Crawl.URLsByDepth {
		line(fmt.Sprintf("crawl.urls_by_depth[%d]", depth), n)
	}
	line("pipeline.annotations", d.Pipeline.Annotations)
	line("pipeline.records", d.Pipeline.Records)
	line("pipeline.failures", d.Pipeline.Failures)
	vec("pipeline.failures", d.Pipeline.FailuresByKind)
	line("pipeline.countries_run", d.Pipeline.CountriesRun)
	line("pipeline.countries_failed", d.Pipeline.CountriesFailed)

	if len(d.Pipeline.Countries) > 0 {
		b.WriteString("\nper-country deterministic counters\n")
		for _, code := range sortedKeys(d.Pipeline.Countries) {
			c := d.Pipeline.Countries[code]
			fmt.Fprintf(&b, "  %-3s attempted=%d records=%d failures=%d discarded=%d unusable=%d retries=%d vantage_attempts=%d\n",
				code, c.Attempted, c.Records, c.Failures, c.Discarded, c.Unusable, c.Retries, c.VantageAttempts)
		}
	}

	b.WriteString("\nwall-clock and scheduling-shape observations (excluded from golden comparisons)\n")
	rt := s.Runtime
	line("sched.tasks_submitted", rt.Sched.TasksSubmitted)
	line("sched.queue_depth_high_water", rt.Sched.QueueDepthHighWater)
	line("sched.workers_busy_high_water", rt.Sched.WorkersBusyHighWater)
	hist := func(k string, h HistogramSnapshot) {
		fmt.Fprintf(&b, "  %-36s count=%d mean=%v max=%v total=%v\n", k, h.Count, h.Mean, h.Max, h.Sum)
	}
	hist("sched.queue_wait", rt.Sched.QueueWait)
	line("cache.coalesced", rt.Cache.Coalesced)
	line("geo.unicast.coalesced", rt.Geo.Unicast.Coalesced)
	line("geo.anycast.coalesced", rt.Geo.Anycast.Coalesced)
	line("fetch.budget_denied", rt.Fetch.BudgetDenied)
	line("pipeline.records_in_flight_high_water", rt.Pipeline.RecordsInFlightHighWater)
	line("shard.restarts", rt.Shard.Restarts)
	line("shard.exhausted", rt.Shard.Exhausted)
	line("shard.checkpoints_quarantined", rt.Shard.CheckpointsQuarantined)
	if rt.Serve.Active() {
		vec("serve.requests", rt.Serve.Requests)
		vec("serve.statuses", rt.Serve.Statuses)
		line("serve.cache_hits", rt.Serve.CacheHits)
		line("serve.cache_misses", rt.Serve.CacheMisses)
		line("serve.cache_coalesced", rt.Serve.CacheCoalesced)
		line("serve.not_modified", rt.Serve.NotModified)
		line("serve.in_flight_high_water", rt.Serve.InFlightHighWater)
		line("serve.reloads", rt.Serve.Reloads)
		line("serve.reload_failures", rt.Serve.ReloadFailures)
		for _, ep := range sortedKeys(rt.Serve.Latency) {
			hist("serve.latency["+ep+"]", rt.Serve.Latency[ep])
		}
	}
	for _, stage := range sortedKeys(rt.Stages) {
		hist("stage."+stage, rt.Stages[stage])
	}
	if len(rt.Countries) > 0 {
		b.WriteString("\nper-country stage timings\n")
		for _, code := range sortedKeys(rt.Countries) {
			t := rt.Countries[code]
			fmt.Fprintf(&b, "  %-3s vantage=%v estate=%v crawl=%v classify=%v annotate=%v\n",
				code, t.Vantage, t.Estate, t.Crawl, t.Classify, t.Annotate)
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
