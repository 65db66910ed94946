package metrics

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load() = %d, want 42", got)
	}
}

func TestGaugeHighWater(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Inc()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Errorf("Value() = %d, want 1", got)
	}
	if got := g.HighWater(); got != 3 {
		t.Errorf("HighWater() = %d, want 3", got)
	}
	// Going down never raises the mark; coming back up past it does.
	g.Add(-5)
	if got := g.HighWater(); got != 3 {
		t.Errorf("HighWater() after Add(-5) = %d, want 3", got)
	}
	g.Add(10)
	if got := g.HighWater(); got != 6 {
		t.Errorf("HighWater() after climb = %d, want 6", got)
	}
}

func TestGaugeConcurrentHighWater(t *testing.T) {
	var g Gauge
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Errorf("Value() = %d, want 0 after balanced inc/dec", got)
	}
	if hw := g.HighWater(); hw < 1 || hw > workers {
		t.Errorf("HighWater() = %d, want within [1, %d]", hw, workers)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	durs := []time.Duration{
		5 * time.Microsecond,   // bucket 0 (≤10µs)
		500 * time.Microsecond, // bucket 2 (≤1ms)
		5 * time.Millisecond,   // bucket 3 (≤10ms)
		2 * time.Second,        // overflow
	}
	for _, d := range durs {
		h.Observe(d)
	}
	s := h.snapshot()
	if s.Count != int64(len(durs)) {
		t.Errorf("Count = %d, want %d", s.Count, len(durs))
	}
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	if s.Sum != sum {
		t.Errorf("Sum = %v, want %v", s.Sum, sum)
	}
	if s.Max != 2*time.Second {
		t.Errorf("Max = %v, want 2s", s.Max)
	}
	if s.Mean != sum/time.Duration(len(durs)) {
		t.Errorf("Mean = %v, want %v", s.Mean, sum/time.Duration(len(durs)))
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b.N
	}
	if bucketTotal != s.Count {
		t.Errorf("buckets sum to %d, want %d", bucketTotal, s.Count)
	}
	// The overflow bucket is last, marked LE == -1.
	last := s.Buckets[len(s.Buckets)-1]
	if last.LE != -1 || last.N != 1 {
		t.Errorf("overflow bucket = %+v, want {LE:-1 N:1}", last)
	}
}

func TestVec(t *testing.T) {
	var v Vec
	if snap := v.snapshot(); snap != nil {
		t.Errorf("empty vec snapshot = %v, want nil", snap)
	}
	if got := v.Load("missing"); got != 0 {
		t.Errorf("Load(missing) = %d, want 0", got)
	}
	v.Add("timeout", 2)
	v.Add("reset", 1)
	v.Add("timeout", 1)
	if got := v.Load("timeout"); got != 3 {
		t.Errorf("Load(timeout) = %d, want 3", got)
	}
	snap := v.snapshot()
	if len(snap) != 2 || snap["timeout"] != 3 || snap["reset"] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
}

// TestAddCrawl: folding crawl tallies sums every counter, grows the
// per-depth table to the deepest level any crawl reached, and counts
// each admitted URL as one scheduler item and one first attempt plus
// one attempt per retry.
func TestAddCrawl(t *testing.T) {
	var d Deterministic
	d.AddCrawl(CrawlTally{URLsByDepth: []int64{10}, FrontierTruncated: 3})
	d.AddCrawl(CrawlTally{
		URLsByDepth:   []int64{2, 0, 5},
		RetriesByKind: map[string]int64{"timeout": 2, "reset": 1},
		Injections:    map[string]int64{"timeout": 2, "slow": 4},
	})
	d.AddCrawl(CrawlTally{})
	want := Deterministic{
		Sched:  SchedCounters{ItemsScheduled: 17, ItemsRun: 17},
		Fetch:  FetchCounters{Attempts: 20, Retries: 3, RetriesByKind: map[string]int64{"timeout": 2, "reset": 1}},
		Faults: FaultCounters{Injections: map[string]int64{"timeout": 2, "slow": 4}},
		Crawl:  CrawlCounters{FrontierAdmitted: 17, FrontierTruncated: 3, URLsByDepth: []int64{12, 0, 5}},
	}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("AddCrawl =\n%+v\nwant\n%+v", d, want)
	}
}

// TestNilSafeRecorders: every hot-path recording helper must tolerate a
// nil receiver, so disabled-metrics runs pay only a nil check.
func TestNilSafeRecorders(t *testing.T) {
	(*PipelineMetrics)(nil).RecordCountryTimings("US", CountryTimings{})
	(*PipelineMetrics)(nil).ObserveStage("crawl", time.Millisecond)
}

// TestRecordsInFlightGauge covers the streaming memory bound's
// instrument: the gauge tracks parked record counts and its high-water
// mark survives into the runtime snapshot.
func TestRecordsInFlightGauge(t *testing.T) {
	r := New()
	r.Pipeline.RecordsInFlight(5)
	r.Pipeline.RecordsInFlight(3)
	r.Pipeline.RecordsInFlight(-5)
	r.Pipeline.RecordsInFlight(4)
	r.Pipeline.RecordsInFlight(-7)

	if got := r.Pipeline.InFlight.Value(); got != 0 {
		t.Fatalf("gauge value = %d, want 0 after all flushes", got)
	}
	snap := r.Snapshot()
	if got := snap.Runtime.Pipeline.RecordsInFlightHighWater; got != 8 {
		t.Fatalf("high water = %d, want 8", got)
	}

	// Nil-safe like every other recording method: a disabled registry
	// must not panic the sink.
	var pm *PipelineMetrics
	pm.RecordsInFlight(3)
}

func TestObserveStage(t *testing.T) {
	var m PipelineMetrics
	m.ObserveStage("crawl", 2*time.Millisecond)
	m.ObserveStage("crawl", 4*time.Millisecond)
	m.ObserveStage("annotate", time.Millisecond)
	stages := m.stageSnapshots()
	if len(stages) != 2 {
		t.Fatalf("stages = %v, want 2 entries", stages)
	}
	if got := stages["crawl"]; got.Count != 2 || got.Sum != 6*time.Millisecond {
		t.Errorf("crawl stage = %+v", got)
	}
}

// TestDeterministicJSONStable: two registries given the same ledger —
// folded from the same crawls in different orders — and different
// wall-clock observations must render byte-identical deterministic
// halves, while the full JSON may differ. This is the property the
// chaos suite leans on.
func TestDeterministicJSONStable(t *testing.T) {
	crawls := []CrawlTally{
		{URLsByDepth: []int64{3, 4}, RetriesByKind: map[string]int64{"timeout": 1, "reset": 2}},
		{URLsByDepth: []int64{1}, Injections: map[string]int64{"5xx": 1, "timeout": 1}},
		{FrontierTruncated: 2, RetriesByKind: map[string]int64{"5xx": 1}},
	}
	feed := func(r *Registry, reverse bool, wait time.Duration) {
		var d Deterministic
		for i := range crawls {
			if reverse {
				i = len(crawls) - 1 - i
			}
			d.AddCrawl(crawls[i])
		}
		d.Pipeline.Countries = map[string]CountryCounters{"UY": {Attempted: 7, Records: 7}}
		r.SetDeterministic(d)
		r.Sched.QueueWait.Observe(wait)
		r.Pipeline.RecordCountryTimings("UY", CountryTimings{Crawl: wait})
		r.Pipeline.ObserveStage("crawl", wait)
	}
	a, b := New(), New()
	feed(a, false, time.Millisecond)
	feed(b, true, 7*time.Millisecond)

	da, err := a.Snapshot().DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Snapshot().DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Errorf("deterministic halves diverged:\n%s\n---\n%s", da, db)
	}
	ja, err := a.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ja, jb) {
		t.Error("full snapshots identical despite different wall-clock observations")
	}
}

func TestSnapshotText(t *testing.T) {
	r := New()
	r.SetDeterministic(Deterministic{
		Fetch:    FetchCounters{Attempts: 1},
		Pipeline: PipelineCounters{Countries: map[string]CountryCounters{"US": {Attempted: 3, Records: 3}}},
	})
	r.Pipeline.RecordCountryTimings("US", CountryTimings{Vantage: time.Millisecond})
	r.Pipeline.ObserveStage("study", 10*time.Millisecond)
	text := r.Snapshot().Text()
	for _, want := range []string{
		"deterministic counters",
		"excluded from golden comparisons",
		"fetch.attempts",
		"US  attempted=3",
		"stage.study",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
}
