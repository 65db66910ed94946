package govhost

// The benchmark harness regenerates every table and figure of the
// paper's evaluation. Each Benchmark{FigN,TableN}… target runs the
// corresponding analysis over a shared study (built once outside the
// timer) and reports paper-vs-measured rows through -v logs on the
// first iteration. Ablation benches rerun the pipeline with a design
// choice disabled. Run with:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig9 -v       # see the comparison rows

import (
	"context"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// benchStudy shares one moderately sized study across benchmarks.
var (
	benchOnce sync.Once
	benchVal  *Study
	benchErr  error
)

func benchStudy(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		benchVal, benchErr = Run(context.Background(), Config{Scale: 0.1})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchVal
}

// logOnce emits the paper-vs-measured report on the first iteration.
func logOnce(b *testing.B, s *Study, id string) {
	b.Helper()
	if b.N > 0 {
		b.Logf("\n%s", s.Report(id))
	}
}

func BenchmarkStudyPipeline(b *testing.B) {
	// The full pipeline end to end: environment build, 61 crawls,
	// classification, resolution, geolocation. Scale 0.05 is large
	// enough that assembly behaviour (streaming vs whole-study
	// buffering) is visible in the allocation numbers.
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Config{Scale: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyPipelineSplitBudget(b *testing.B) {
	// The same run with the scheduler knobs split explicitly: few
	// countries in flight, a wider shared fetch/annotate pool. Total
	// goroutine count is 4 + 16 either way — the budget, not its
	// square.
	for i := 0; i < b.N; i++ {
		cfg := Config{Scale: 0.02, CountryConcurrency: 4, FetchConcurrency: 16}
		if _, err := Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyPipelineCapped(b *testing.B) {
	// A capped crawl exercises the deterministic frontier admission
	// path on every level.
	for i := 0; i < b.N; i++ {
		cfg := Config{Scale: 0.02, MaxURLsPerCrawl: 50, SkipTopsites: true}
		if _, err := Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalysisIndex(b *testing.B) {
	// One full index build: the single dataset scan that replaces the
	// per-figure scans. Every Fig/Table query above amortises this cost
	// through Study's sync.Once; the per-query price is then the O(1)
	// or O(countries) read measured by the figure benches.
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := analysis.BuildIndexWorkers(s.ds, 1)
		if len(idx.CountryShares()) == 0 {
			b.Fatal("empty index")
		}
	}
}

func BenchmarkFig1MajorityMap(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.MajorityThirdParty()) == 0 {
			b.Fatal("empty map")
		}
	}
	logOnce(b, s, "fig1")
}

func BenchmarkFig2GlobalShares(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh := s.GlobalShares()
		if sh.URLs[GovtSOE] <= 0 {
			b.Fatal("degenerate shares")
		}
	}
	logOnce(b, s, "fig2")
}

func BenchmarkFig3GovVsTopsites(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.CompareTopsites()
		if c.Topsites.URLs[Global3P] <= 0 {
			b.Fatal("degenerate comparison")
		}
	}
	logOnce(b, s, "fig3")
}

func BenchmarkFig4RegionalShares(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.RegionalShares()) != 7 {
			b.Fatal("missing regions")
		}
	}
	logOnce(b, s, "fig4")
}

func BenchmarkFig5Clustering(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ClusterBranches(false); err != nil {
			b.Fatal(err)
		}
		if _, err := s.ClusterBranches(true); err != nil {
			b.Fatal(err)
		}
	}
	logOnce(b, s, "fig5")
}

func BenchmarkFig6DomesticIntl(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sp := s.DomesticSplit(); sp.GeoDomestic <= 0 {
			b.Fatal("degenerate split")
		}
	}
	logOnce(b, s, "fig6")
}

func BenchmarkFig7GovVsTopsitesDomestic(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.CompareTopsites()
		if c.TopsitesSplit.GeoDomestic <= 0 {
			b.Fatal("degenerate split")
		}
	}
	logOnce(b, s, "fig7")
}

func BenchmarkFig8RegionalDomesticIntl(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.RegionalDomesticSplit()) != 7 {
			b.Fatal("missing regions")
		}
	}
	logOnce(b, s, "fig8")
}

func BenchmarkFig9CrossBorderFlows(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.CrossBorderFlows(ByLocation)) == 0 {
			b.Fatal("no flows")
		}
		if len(s.CrossBorderFlows(ByRegistration)) == 0 {
			b.Fatal("no flows")
		}
	}
	logOnce(b, s, "fig9")
}

func BenchmarkFig10GlobalProviders(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.GlobalProviders()) == 0 {
			b.Fatal("no providers")
		}
	}
	logOnce(b, s, "fig10")
}

func BenchmarkFig11HHIDiversification(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Diversification()) == 0 {
			b.Fatal("no diversification data")
		}
	}
	logOnce(b, s, "fig11")
}

func BenchmarkFig12OLSExplanatoryFactors(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.ExplanatoryModel(); err != nil {
			b.Fatal(err)
		}
	}
	logOnce(b, s, "fig12")
}

func BenchmarkTable1ClassificationYields(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tld, domain, san := s.MethodYields()
		if tld+domain+san == 0 {
			b.Fatal("no yields")
		}
	}
	logOnce(b, s, "table1")
}

func BenchmarkTable2InfraRecord(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Report("table2") == "" {
			b.Fatal("no record")
		}
	}
	logOnce(b, s, "table2")
}

func BenchmarkTable3DatasetStats(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Stats().UniqueURLs == 0 {
			b.Fatal("no stats")
		}
	}
	logOnce(b, s, "table3")
}

func BenchmarkTable4GeoValidation(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Report("table4") == "" {
			b.Fatal("no validation stats")
		}
	}
	logOnce(b, s, "table4")
}

func BenchmarkTable5InRegionDependency(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.InRegionDependency()) == 0 {
			b.Fatal("no dependency data")
		}
	}
	logOnce(b, s, "table5")
}

func BenchmarkTable7VIF(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, vifs, err := s.ExplanatoryModel(); err != nil || len(vifs) != 6 {
			b.Fatal("VIF computation failed")
		}
	}
	logOnce(b, s, "table7")
}

func BenchmarkTable8PerCountryStats(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.PerCountryStats()) == 0 {
			b.Fatal("no per-country stats")
		}
	}
	logOnce(b, s, "table8")
}

func BenchmarkTable9CountryPanel(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Report("table9") == "" {
			b.Fatal("no panel")
		}
	}
}

// --- Ablation benches: rerun the pipeline with one design choice
// disabled, reporting how the headline metrics move (DESIGN.md §6).

func ablationRun(b *testing.B, cfg Config) *Study {
	b.Helper()
	cfg.Scale = 0.03
	s, err := Run(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkAblationIPInfoOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ablationRun(b, Config{TrustIPInfo: true})
		if i == 0 {
			sp := s.DomesticSplit()
			b.Logf("trust-IPInfo: geo domestic %.3f (verified pipeline ≈0.87 with exclusions)", sp.GeoDomestic)
		}
	}
}

func BenchmarkAblationNoSAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ablationRun(b, Config{DisableSAN: true})
		if i == 0 {
			_, _, san := s.MethodYields()
			b.Logf("no-SAN: SAN yield %.4f (full pipeline ≈0.003)", san)
		}
	}
}

func BenchmarkAblationGlobalThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// A single 30 ms threshold instead of per-country road-derived
		// ones: small countries over-accept neighbours, large countries
		// reject their own periphery.
		s := ablationRun(b, Config{GlobalThresholdMS: 30})
		if i == 0 {
			sp := s.DomesticSplit()
			b.Logf("global 30ms threshold: geo domestic %.3f", sp.GeoDomestic)
		}
	}
}

func BenchmarkAblationCrawlDepth1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ablationRun(b, Config{CrawlDepth: 1})
		if i == 0 {
			b.Logf("depth-1: %d URLs (the paper finds 95%% of URLs within one level)", s.Stats().UniqueURLs)
		}
	}
}

func BenchmarkAblationDepth7Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ablationRun(b, Config{})
		if i == 0 {
			b.Logf("depth-7 baseline: %d URLs", s.Stats().UniqueURLs)
		}
	}
}
