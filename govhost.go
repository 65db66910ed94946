// Package govhost reproduces "Of Choices and Control — A Comparative
// Analysis of Government Hosting" (IMC 2024) end to end: it
// materialises a synthetic Internet calibrated against the paper's
// published findings, runs the paper's measurement pipeline over it
// (in-country vantage points, recursive crawling, government-URL
// classification, serving-infrastructure identification, multistage
// geolocation), and exposes every analysis of §5–§7 and the appendices
// through a typed public API.
//
// Quick start:
//
//	study, err := govhost.Run(ctx, govhost.Config{Scale: 0.05})
//	shares := study.GlobalShares()          // Fig. 2
//	flows := study.CrossBorderFlows(...)    // Fig. 9
//	fmt.Println(study.Report("fig2"))       // paper-vs-measured text
package govhost

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/world"
)

// Config parameterises a study run. The zero value runs the full
// 61-country panel at 10 % of the paper's estate size with seed 42.
type Config struct {
	// Seed drives every random choice; equal seeds give bit-identical
	// studies. Defaults to 42.
	Seed int64
	// Scale is the fraction of the paper's estate size to generate
	// (1.0 ≈ one million URLs). Defaults to 0.1.
	Scale float64
	// Countries restricts the panel to the given ISO codes.
	Countries []string
	// CrawlDepth overrides the paper's seven-level crawl when positive.
	CrawlDepth int
	// CountryConcurrency bounds how many countries are crawled in
	// parallel; 0 picks a default of 8.
	CountryConcurrency int
	// FetchConcurrency sizes the single study-wide worker pool that
	// executes every fetch and annotation across all countries; 0
	// picks a default of 8. Total goroutine count during a run is
	// CountryConcurrency + FetchConcurrency.
	FetchConcurrency int
	// MaxURLsPerCrawl caps the distinct URLs each country crawl admits
	// (0 = unlimited). The cap cuts a sorted per-depth frontier, so
	// capped runs stay seed-deterministic at any concurrency.
	MaxURLsPerCrawl int
	// SkipTopsites disables the Appendix D popular-site baseline.
	SkipTopsites bool

	// FaultProfile selects a fault-injection profile for chaos runs:
	// "off" (default), "mild", "aggressive", or a key=value spec such
	// as "timeout=0.1,reset=0.05" (see internal/faults.ParseProfile).
	FaultProfile string
	// FaultSeed seeds the fault plan independently of Seed, so the
	// same study can be replayed under different fault draws. 0
	// inherits Seed.
	FaultSeed int64
	// RetryAttempts bounds fetch attempts per URL (0 picks a default
	// of 3, negative disables retries).
	RetryAttempts int
	// RetryBudget caps total retries across the whole study as a cost
	// safety valve (0 = unlimited). A binding budget trades
	// byte-reproducibility for bounded work.
	RetryBudget int64

	// TrendYears evolves the synthetic world forward by N years of the
	// consolidation trend (extension; related work measures hosting
	// shifting steadily onto global providers).
	TrendYears int

	// Ablations.
	TrustIPInfo       bool    // skip §3.5 verification, trust the geo database
	GlobalThresholdMS float64 // replace per-country road thresholds
	DisableSAN        bool    // drop the Table 1 SAN-matching step

	// CheckpointDir, when set, persists each finished country into the
	// directory as it completes, so a killed run can be resumed instead
	// of restarted. See Resume.
	CheckpointDir string
	// Resume loads the finished countries found in CheckpointDir and
	// runs only the remainder. The directory's manifest must match this
	// configuration. A resumed run's exports and deterministic metrics
	// are byte-identical to an uninterrupted same-seed run.
	Resume bool
}

func (c Config) toCore() core.Config {
	return core.Config{
		Seed:               c.Seed,
		Scale:              c.Scale,
		Countries:          c.Countries,
		CrawlDepth:         c.CrawlDepth,
		CountryConcurrency: c.CountryConcurrency,
		FetchConcurrency:   c.FetchConcurrency,
		MaxURLsPerCrawl:    c.MaxURLsPerCrawl,
		SkipTopsites:       c.SkipTopsites,
		FaultProfile:       c.FaultProfile,
		FaultSeed:          c.FaultSeed,
		RetryAttempts:      c.RetryAttempts,
		RetryBudget:        c.RetryBudget,
		TrendYears:         c.TrendYears,
		TrustIPInfo:        c.TrustIPInfo,
		GlobalThresholdMS:  c.GlobalThresholdMS,
		DisableSAN:         c.DisableSAN,
		CheckpointDir:      c.CheckpointDir,
		Resume:             c.Resume,
	}
}

// MetricsSnapshot is a frozen view of the study's per-stage metrics:
// the Deterministic half is byte-identical for equal seeds at any
// concurrency shape, the Runtime half carries wall-clock timings and
// scheduling-shape observations. Render it with JSON,
// DeterministicJSON or Text.
type MetricsSnapshot = metrics.Snapshot

// Study is a completed measurement study.
type Study struct {
	cfg Config
	env *core.Env
	ds  *dataset.Dataset

	// idx is the one-pass analysis index, built lazily on the first
	// figure/table query and shared by all of them: a report renders a
	// dozen figures over one study, and without the index each one
	// rescanned every record.
	idxOnce sync.Once
	idx     *analysis.Index
}

// index returns the memoized analysis index, built at the default
// worker count (the index is byte-identical at any width).
func (s *Study) index() *analysis.Index {
	s.idxOnce.Do(func() { s.idx = analysis.BuildIndexWorkers(s.ds, sched.ResolveWorkers(0)) })
	return s.idx
}

// Run executes the full pipeline: environment materialisation,
// per-country crawls, classification, infrastructure resolution,
// geolocation, and category assignment.
func Run(ctx context.Context, cfg Config) (*Study, error) {
	env := core.NewEnv(cfg.toCore())
	ds, err := env.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("govhost: %w", err)
	}
	return &Study{cfg: cfg, env: env, ds: ds}, nil
}

// Category identifies a hosting-provider class (§5.1). For top-site
// results, GovtSOE reads as "Self-Hosting" (Appendix D).
type Category = world.Category

// The four categories.
const (
	GovtSOE  = world.CatGovtSOE
	Local3P  = world.Cat3PLocal
	Global3P = world.Cat3PGlobal
	Region3P = world.Cat3PRegional
)

// Shares is a URL/byte share pair over the four categories, indexed by
// Category.
type Shares struct {
	URLs  [4]float64
	Bytes [4]float64
}

func sharesOf(s analysis.Shares) Shares {
	return Shares{URLs: s.URLs, Bytes: s.Bytes}
}

// Split is a domestic/international pair for registration (WHOIS) and
// server location.
type Split struct {
	RegDomestic float64
	GeoDomestic float64
}

func splitOf(s analysis.SplitShares) Split {
	return Split{RegDomestic: s.RegDomestic, GeoDomestic: s.GeoDomestic}
}

// GlobalShares returns Fig. 2.
func (s *Study) GlobalShares() Shares {
	return sharesOf(s.index().GlobalShares())
}

// RegionalShares returns Fig. 4, keyed by World Bank region code.
func (s *Study) RegionalShares() map[string]Shares {
	out := map[string]Shares{}
	for reg, sh := range s.index().RegionalShares() {
		out[string(reg)] = sharesOf(sh)
	}
	return out
}

// CountryShares returns each country's hosting signature (Fig. 5
// input).
func (s *Study) CountryShares() map[string]Shares {
	out := map[string]Shares{}
	for code, sh := range s.index().CountryShares() {
		out[code] = sharesOf(sh)
	}
	return out
}

// MajorityThirdParty returns Fig. 1: country code → true when the
// majority of its government bytes come from third parties.
func (s *Study) MajorityThirdParty() map[string]bool {
	out := map[string]bool{}
	for _, e := range s.index().MajorityMap() {
		out[e.Country] = e.ThirdPty
	}
	return out
}

// DomesticSplit returns Fig. 6.
func (s *Study) DomesticSplit() Split {
	return splitOf(s.index().DomesticIntl())
}

// RegionalDomesticSplit returns Fig. 8, keyed by region code.
func (s *Study) RegionalDomesticSplit() map[string]Split {
	out := map[string]Split{}
	for reg, sp := range s.index().RegionalDomesticIntl() {
		out[string(reg)] = splitOf(sp)
	}
	return out
}

// Flow is one cross-border dependency (Fig. 9): Share of Src's URLs
// that depend on Dst.
type Flow struct {
	Src, Dst string
	URLs     int
	Share    float64
}

// FlowKind selects a Fig. 9 panel.
type FlowKind int

// Flow kinds.
const (
	ByRegistration FlowKind = iota // Fig. 9a
	ByLocation                     // Fig. 9b
)

// CrossBorderFlows returns Fig. 9's dependency edges.
func (s *Study) CrossBorderFlows(kind FlowKind) []Flow {
	k := analysis.FlowRegistration
	if kind == ByLocation {
		k = analysis.FlowLocation
	}
	var out []Flow
	for _, f := range s.index().CrossBorderFlows(k) {
		out = append(out, Flow{Src: f.Src, Dst: f.Dst, URLs: f.URLs, Share: f.Share})
	}
	return out
}

// InRegionDependency returns Table 5: per region, the share of
// cross-border dependencies that stay inside the region.
func (s *Study) InRegionDependency() map[string]float64 {
	out := map[string]float64{}
	for reg, v := range s.index().InRegionShare(s.env.World) {
		out[string(reg)] = v
	}
	return out
}

// GDPRCompliance returns the fraction of EU government URLs served
// from inside the EU, and the number of EU URLs observed.
func (s *Study) GDPRCompliance() (fraction float64, totalURLs int) {
	ok, total := s.index().GDPRCompliance(s.env.World)
	if total == 0 {
		return 0, 0
	}
	return float64(ok) / float64(total), total
}

// ProviderFootprint is one Fig. 10 bar.
type ProviderFootprint struct {
	ASN       int
	Org       string
	Countries int
}

// GlobalProviders returns Fig. 10 ranked descending.
func (s *Study) GlobalProviders() []ProviderFootprint {
	var out []ProviderFootprint
	for _, p := range s.index().GlobalProviderFootprints() {
		out = append(out, ProviderFootprint{ASN: p.ASN, Org: p.Org, Countries: p.Countries})
	}
	return out
}

// Diversification is one country's Fig. 11 data point.
type Diversification struct {
	Country     string
	HHIURLs     float64
	HHIBytes    float64
	Dominant    Category
	TopNetShare float64
}

// Diversification returns per-country provider-concentration indexes.
func (s *Study) Diversification() []Diversification {
	var out []Diversification
	for _, d := range s.index().Diversify() {
		out = append(out, Diversification{
			Country: d.Country, HHIURLs: d.HHIURLs, HHIBytes: d.HHIBytes,
			Dominant: d.DominantCat, TopNetShare: d.TopNetShare,
		})
	}
	return out
}

// ClusterBranches returns the three-branch Fig. 5 cut: dendrogram
// branches of country codes, by URL or byte signatures.
func (s *Study) ClusterBranches(byBytes bool) ([][]string, error) {
	kind := analysis.SignatureURLs
	if byBytes {
		kind = analysis.SignatureBytes
	}
	root, err := analysis.ClusterCountries(s.index(), kind)
	if err != nil {
		return nil, err
	}
	return clusterCut(root, 3), nil
}

// Comparison is the Figs. 3/7 government-vs-topsites result. In
// Topsites, index GovtSOE means "Self-Hosting".
type Comparison struct {
	Gov, Topsites           Shares
	GovSplit, TopsitesSplit Split
}

// CompareTopsites returns the Appendix D comparison.
func (s *Study) CompareTopsites() Comparison {
	c := s.index().CompareTopsites()
	return Comparison{
		Gov:           sharesOf(c.Gov),
		Topsites:      sharesOf(c.Topsites),
		GovSplit:      splitOf(c.GovSplit),
		TopsitesSplit: splitOf(c.TopSplit),
	}
}

// Coefficient is one Fig. 12 estimate.
type Coefficient struct {
	Name          string
	Estimate      float64
	StdErr        float64
	CILow, CIHigh float64
	PValue        float64
	Significant05 bool
}

// ExplanatoryModel returns the Appendix E OLS fit and the Table 7 VIF
// values.
func (s *Study) ExplanatoryModel() ([]Coefficient, map[string]float64, error) {
	res, err := analysis.ExplainForeignHosting(s.index(), s.env.World)
	if err != nil {
		return nil, nil, err
	}
	var coefs []Coefficient
	for i, name := range res.OLS.Names {
		coefs = append(coefs, Coefficient{
			Name:          name,
			Estimate:      res.OLS.Coef[i],
			StdErr:        res.OLS.StdErr[i],
			CILow:         res.OLS.CILow[i],
			CIHigh:        res.OLS.CIHigh[i],
			PValue:        res.OLS.PValue[i],
			Significant05: res.OLS.PValue[i] < 0.05,
		})
	}
	return coefs, res.VIF, nil
}

// DatasetStats mirrors Table 3.
type DatasetStats struct {
	LandingURLs     int
	InternalURLs    int
	UniqueURLs      int
	UniqueHostnames int
	ASes            int
	GovASes         int
	UniqueIPs       int
	AnycastIPs      int
	ServerCountries int
}

// Stats returns Table 3 for this run (scaled by Config.Scale).
func (s *Study) Stats() DatasetStats {
	return DatasetStats{
		LandingURLs:     s.ds.TotalLanding,
		InternalURLs:    s.ds.TotalInternal,
		UniqueURLs:      s.ds.TotalUniqueURLs,
		UniqueHostnames: s.ds.TotalHostnames,
		ASes:            s.ds.ASes,
		GovASes:         s.ds.GovASes,
		UniqueIPs:       s.ds.UniqueIPs,
		AnycastIPs:      s.ds.AnycastIPs,
		ServerCountries: s.ds.ServerCountries,
	}
}

// CountryStats mirrors one Table 8 row.
type CountryStats struct {
	Country      string
	Region       string
	LandingURLs  int
	InternalURLs int
	Hostnames    int
}

// PerCountryStats returns Table 8 rows sorted by country code.
func (s *Study) PerCountryStats() []CountryStats {
	var out []CountryStats
	for code, st := range s.ds.PerCountry {
		out = append(out, CountryStats{
			Country: code, Region: string(st.Region),
			LandingURLs: st.LandingURLs, InternalURLs: st.InternalURLs,
			Hostnames: st.Hostnames,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Country < out[j].Country })
	return out
}

// Metrics returns the frozen per-stage metrics ledger for this study.
// ok is false only for a study loaded from a saved dataset, which
// never ran a pipeline.
func (s *Study) Metrics() (snap MetricsSnapshot, ok bool) {
	reg := s.env.Metrics()
	if reg == nil {
		return MetricsSnapshot{}, false
	}
	return reg.Snapshot(), true
}

// MethodYields returns the Table 1 classification yields over internal
// URLs (TLD, domain-matching, SAN fractions).
func (s *Study) MethodYields() (tld, domain, san float64) {
	total := float64(s.ds.MethodTLD + s.ds.MethodDomain + s.ds.MethodSAN)
	if total == 0 {
		return 0, 0, 0
	}
	return float64(s.ds.MethodTLD) / total,
		float64(s.ds.MethodDomain) / total,
		float64(s.ds.MethodSAN) / total
}

// FlowShare is a convenience over CrossBorderFlows: the share of src's
// URLs served from dst.
func (s *Study) FlowShare(kind FlowKind, src, dst string) float64 {
	for _, f := range s.CrossBorderFlows(kind) {
		if f.Src == src && f.Dst == dst {
			return f.Share
		}
	}
	return 0
}

// HTTPSValidity is the Singanamalla-style extension result: the share
// of government hostnames serving valid HTTPS, globally and per
// region/country.
type HTTPSValidity struct {
	GlobalValid float64
	ByRegion    map[string]float64
	ByCountry   map[string]float64
	Hostnames   int
}

// HTTPSAdoption reports certificate validity across the dataset
// (extension: Singanamalla et al. find over 70 % of government sites
// lack valid HTTPS).
func (s *Study) HTTPSAdoption() HTTPSValidity {
	a := analysis.HTTPSValidity(s.ds)
	out := HTTPSValidity{
		GlobalValid: a.GlobalValid,
		ByRegion:    map[string]float64{},
		ByCountry:   a.ByCountry,
		Hostnames:   a.Hostnames,
	}
	for reg, v := range a.ByRegion {
		out.ByRegion[string(reg)] = v
	}
	return out
}

// Load reconstructs a Study from a dataset previously written with
// ExportJSONL, so saved datasets can be re-analysed — every analysis
// and report works without re-running the pipeline. The measured
// per-country statistics are kept verbatim, not re-derived from the
// records, so the crawl's coverage accounting — attempts, failures,
// retries — survives the round trip.
func Load(r io.Reader) (*Study, error) {
	ds, err := export.ReadJSONL(r)
	if err != nil {
		return nil, fmt.Errorf("govhost: %w", err)
	}
	ds.FillTotals()
	return &Study{
		cfg: Config{Seed: ds.Seed, Scale: ds.Scale},
		env: core.LoadedEnv(world.New()),
		ds:  ds,
	}, nil
}

// ExportJSONL writes the annotated dataset as JSON lines — the
// interchange format standing in for the paper's dataset-on-request.
func (s *Study) ExportJSONL(w io.Writer) error {
	return export.WriteJSONL(w, s.ds)
}

// ExportCSV writes the annotated dataset as CSV.
func (s *Study) ExportCSV(w io.Writer) error {
	return export.WriteCSV(w, s.ds)
}
