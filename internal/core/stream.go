package core

import (
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/govclass"
	"repro/internal/metrics"
)

// countryDone is one finished country on its way into the merge sink:
// fresh from runCountry, reloaded from a checkpoint, or a transient
// failure row synthesized for a country a dead shard owned (never
// persisted — the failure is a fact about this run's crashes, not
// about the seed).
type countryDone struct {
	code    string
	stats   *dataset.CountryStats
	records []dataset.URLRecord
	methods map[govclass.URLMethod]int
	// failed lists the hostnames whose resolution failed, with the
	// lookups the country issued for each, sorted by host.
	failed []checkpoint.HostOutcome
	// tally is the country's crawl tally row: the counts the ledger
	// needs that nothing above determines.
	tally metrics.CrawlTally

	fresh  bool // ran in this process: counts as buffered while parked, and is persisted
	parked bool // sat in pending behind an earlier country
}

// mergeSink consumes completed countries and applies them to the
// dataset in one fixed order — sorted country code — regardless of
// completion order. A country completing out of turn parks in pending
// (raising the records-in-flight gauge) until every earlier country
// has flushed; the rank-0 country can never park, so the gauge's
// high-water mark is strictly below the study's total record count.
// Flushing keeps each country's records (already URL-sorted) in sorted
// country order, and assemble concatenates them into the dataset with
// one exact-size allocation, so the record slice leaves the sink in its
// canonical order without a final global sort or a regrow per country.
//
// When a checkpoint store is attached, each fresh flush also persists
// the country together with its failed resolutions and tally row —
// with the records and stats, everything studyLedger needs from it.
type mergeSink struct {
	env     *Env
	ds      *dataset.Dataset
	store   *checkpoint.Store
	rank    map[string]int
	pending []*countryDone
	next    int

	// parts holds the flushed countries' record slices in flush order
	// until assemble concatenates them.
	parts [][]dataset.URLRecord

	// done lists the flushed countries in flush order, their records
	// released — studyLedger's input beside the dataset.
	done []*countryDone
}

// newMergeSink builds a sink for the study's country set. The flush
// order is the sorted code order, not the configured order, so the
// dataset assembles identically however -countries was spelled.
func newMergeSink(env *Env, ds *dataset.Dataset, store *checkpoint.Store, codes []string) *mergeSink {
	sorted := append([]string(nil), codes...)
	sort.Strings(sorted)
	rank := make(map[string]int, len(sorted))
	for i, code := range sorted {
		rank[code] = i
	}
	return &mergeSink{
		env: env, ds: ds, store: store,
		rank:    rank,
		pending: make([]*countryDone, len(sorted)),
	}
}

// complete hands one finished country to the sink, flushing it and any
// unblocked successors. Callers must serialise complete/drain calls
// (Env.Run guards them with one mutex across the coordinator team).
func (s *mergeSink) complete(d *countryDone) error {
	r := s.rank[d.code]
	s.pending[r] = d
	if r != s.next && d.fresh {
		// Fresh completed work waiting on an earlier country is the
		// memory the streaming bound is about; loaded countries are
		// replays of already-persisted work, not new buffering.
		d.parked = true
		s.env.metrics.Pipeline.RecordsInFlight(int64(len(d.records)))
	}
	for s.next < len(s.pending) && s.pending[s.next] != nil {
		if err := s.flush(s.pending[s.next]); err != nil {
			return err
		}
		s.pending[s.next] = nil
		s.next++
	}
	return nil
}

// drain flushes every parked country in rank order, skipping gaps —
// the cancellation path: countries that finished while later (in rank
// order, earlier) ones were still crawling get persisted instead of
// thrown away.
func (s *mergeSink) drain() error {
	for r := s.next; r < len(s.pending); r++ {
		if s.pending[r] == nil {
			continue
		}
		if err := s.flush(s.pending[r]); err != nil {
			return err
		}
		s.pending[r] = nil
	}
	return nil
}

// assemble concatenates the flushed countries' records, in flush
// order, into the dataset's record slice with one allocation. Call it
// once, after the last flush.
func (s *mergeSink) assemble() {
	n := 0
	for _, p := range s.parts {
		n += len(p)
	}
	s.ds.Records = make([]dataset.URLRecord, 0, n)
	for _, p := range s.parts {
		s.ds.Records = append(s.ds.Records, p...)
	}
	s.parts = nil
}

// flush applies one country to the dataset and — for fresh countries
// with a store attached — persists it. Fresh, reloaded and transient
// failure rows all enter the ledger the same way, through done.
func (s *mergeSink) flush(d *countryDone) error {
	if d.parked {
		s.env.metrics.Pipeline.RecordsInFlight(-int64(len(d.records)))
	}
	s.parts = append(s.parts, d.records)
	s.ds.PerCountry[d.code] = d.stats
	s.ds.MethodTLD += d.methods[govclass.MethodTLD]
	s.ds.MethodDomain += d.methods[govclass.MethodDomain]
	s.ds.MethodSAN += d.methods[govclass.MethodSAN]
	s.ds.Discarded += d.methods[govclass.MethodDiscarded]

	if d.fresh && s.store != nil {
		cp := checkpoint.Country{
			Code:        d.code,
			Stats:       d.stats,
			Records:     d.records,
			FailedHosts: d.failed,
			Tally:       d.tally,
		}
		if len(d.methods) > 0 {
			cp.Methods = make(map[string]int, len(d.methods))
			for m, n := range d.methods {
				cp.Methods[string(m)] = n
			}
		}
		if err := s.store.Put(cp); err != nil {
			return err
		}
	}
	d.records = nil
	s.done = append(s.done, d)
	if s.env.afterFlush != nil {
		s.env.afterFlush(d.code)
	}
	return nil
}
