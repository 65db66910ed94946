// Package analysis computes every result the paper reports from the
// annotated dataset: global/regional/per-country category shares
// (Figs. 1, 2, 4), the government-vs-topsites comparison (Figs. 3, 7),
// country-strategy clustering (Fig. 5), domestic/international splits
// (Figs. 6, 8), cross-border dependency flows and regional affinity
// (Fig. 9, Table 5), global-provider footprints (Fig. 10), HHI
// diversification (Fig. 11), and the explanatory OLS model
// (Fig. 12, Table 7).
//
// The Index is the one computation behind every figure and table
// above: BuildIndexWorkers folds the dataset into it in a single scan,
// and each figure is a query over its aggregates. Clustering and the
// OLS model read their inputs from the Index too.
package analysis

import (
	"repro/internal/dataset"
	"repro/internal/world"
)

// Shares holds URL- and byte-weighted category shares.
type Shares struct {
	URLs  world.Mix
	Bytes world.Mix
	NURL  int
	NByte int64
}

// add folds one record in.
func (s *Shares) add(r *dataset.URLRecord) {
	s.URLs[r.Category]++
	s.Bytes[r.Category] += float64(r.Bytes)
	s.NURL++
	s.NByte += r.Bytes
}

// merge folds another accumulator in. All four fields are sums of
// integer-valued terms, so merging partials is exact — the parallel
// index build relies on this.
func (s *Shares) merge(o Shares) {
	for i := range s.URLs {
		s.URLs[i] += o.URLs[i]
		s.Bytes[i] += o.Bytes[i]
	}
	s.NURL += o.NURL
	s.NByte += o.NByte
}

// normalize converts counts to fractions.
func (s *Shares) normalize() {
	s.URLs = s.URLs.Normalize()
	s.Bytes = s.Bytes.Normalize()
}

// MajorityEntry is one country of the Fig. 1 map.
type MajorityEntry struct {
	Country  string
	ThirdPty bool // majority of bytes from third parties (brown); else Govt&SOE (purple)
	GovShare float64
}

// SplitShares holds a domestic/international pair for registration and
// server location (Figs. 6–8).
type SplitShares struct {
	RegDomestic float64 // WHOIS row
	GeoDomestic float64 // geolocation row, over URLs with a validated location
	NReg, NGeo  int
}

// Comparison is the Figs. 3 and 7 result: government vs top-site
// hosting for the Table 6 country subset. For the top-site half,
// CatGovtSOE reads as "Self-Hosting" (Appendix D).
type Comparison struct {
	Gov      Shares
	Topsites Shares

	GovSplit SplitShares
	TopSplit SplitShares
}
