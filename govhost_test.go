package govhost

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/export"
)

// fullStudy is shared across API tests: one full-panel run at a small
// scale (building it once keeps the suite fast).
var (
	fullStudyOnce sync.Once
	fullStudyVal  *Study
	fullStudyErr  error
)

func fullStudy(t testing.TB) *Study {
	t.Helper()
	fullStudyOnce.Do(func() {
		fullStudyVal, fullStudyErr = Run(context.Background(), Config{Scale: 0.1})
	})
	if fullStudyErr != nil {
		t.Fatal(fullStudyErr)
	}
	return fullStudyVal
}

func sum4(m [4]float64) float64 { return m[0] + m[1] + m[2] + m[3] }

func TestGlobalSharesMatchPaperShape(t *testing.T) {
	s := fullStudy(t)
	sh := s.GlobalShares()
	if math.Abs(sum4(sh.URLs)-1) > 1e-9 || math.Abs(sum4(sh.Bytes)-1) > 1e-9 {
		t.Fatalf("shares not normalized: %+v", sh)
	}
	thirdParty := 1 - sh.URLs[GovtSOE]
	// Paper: 62 % of URLs from third parties.
	if thirdParty < 0.50 || thirdParty > 0.75 {
		t.Errorf("third-party URL share = %.3f, want ≈0.62", thirdParty)
	}
	// Regional category stays marginal.
	if sh.URLs[Region3P] > 0.10 {
		t.Errorf("3P Regional share = %.3f, implausibly large", sh.URLs[Region3P])
	}
}

func TestDomesticSplitMatchesPaperShape(t *testing.T) {
	s := fullStudy(t)
	sp := s.DomesticSplit()
	// Paper: 87 % served domestically, 77 % domestically registered,
	// and registration is always the weaker notion of "domestic".
	if sp.GeoDomestic < 0.78 || sp.GeoDomestic > 0.95 {
		t.Errorf("geo domestic = %.3f, want ≈0.87", sp.GeoDomestic)
	}
	if sp.RegDomestic < 0.62 || sp.RegDomestic > 0.88 {
		t.Errorf("reg domestic = %.3f, want ≈0.77", sp.RegDomestic)
	}
	if sp.RegDomestic >= sp.GeoDomestic {
		t.Errorf("registration (%.3f) must be less domestic than serving (%.3f): foreign-registered CDNs serve domestically",
			sp.RegDomestic, sp.GeoDomestic)
	}
}

func TestRegionalSharesOrdering(t *testing.T) {
	s := fullStudy(t)
	regional := s.RegionalShares()
	if len(regional) != 7 {
		t.Fatalf("regions = %d, want 7", len(regional))
	}
	// South Asia is by far the most government-hosted region; North
	// America leans hardest on global providers (Fig. 4).
	if regional["SA"].URLs[GovtSOE] < regional["NA"].URLs[GovtSOE] {
		t.Error("SA must host more on government infrastructure than NA")
	}
	if regional["NA"].URLs[Global3P] < regional["SA"].URLs[Global3P] {
		t.Error("NA must lean on global providers more than SA")
	}
	if regional["SSA"].URLs[GovtSOE] > 0.15 {
		t.Errorf("SSA Govt&SOE share = %.2f, paper reports ≈0.01", regional["SSA"].URLs[GovtSOE])
	}
}

func TestMajorityMapCoversCountries(t *testing.T) {
	s := fullStudy(t)
	m := s.MajorityThirdParty()
	if len(m) < 55 {
		t.Fatalf("majority map covers %d countries", len(m))
	}
	if m["UY"] {
		t.Error("Uruguay serves 98% of bytes from Govt&SOE; must not be third-party-majority")
	}
	if !m["AR"] {
		t.Error("Argentina relies ~90% on third parties; must be third-party-majority")
	}
}

func TestCrossBorderBilateralFindings(t *testing.T) {
	s := fullStudy(t)
	cases := []struct {
		src, dst string
		lo, hi   float64
	}{
		{"MX", "US", 0.55, 0.95}, // paper: 79.2 %
		{"CN", "JP", 0.12, 0.45}, // paper: 26.4 %
		{"NZ", "AU", 0.20, 0.60}, // paper: 40 %
		{"FR", "NC", 0.08, 0.35}, // paper: 18.0 %
	}
	for _, tc := range cases {
		got := s.FlowShare(ByLocation, tc.src, tc.dst)
		if got < tc.lo || got > tc.hi {
			t.Errorf("%s→%s = %.3f, want in [%.2f, %.2f]", tc.src, tc.dst, got, tc.lo, tc.hi)
		}
	}
	// Brazil's LGPD keeps almost everything home.
	if got := s.FlowShare(ByLocation, "BR", "US"); got > 0.12 {
		t.Errorf("BR→US = %.3f, paper reports 1.8%%", got)
	}
}

func TestGDPRCompliance(t *testing.T) {
	s := fullStudy(t)
	frac, total := s.GDPRCompliance()
	if total == 0 {
		t.Fatal("no EU URLs observed")
	}
	if frac < 0.93 {
		t.Errorf("GDPR compliance = %.3f, paper reports 98.3%%", frac)
	}
}

func TestInRegionDependencyShape(t *testing.T) {
	s := fullStudy(t)
	in := s.InRegionDependency()
	// Table 5: ECA keeps almost everything in-region; MENA and SA keep
	// almost nothing.
	if in["ECA"] < 0.6 {
		t.Errorf("ECA in-region = %.3f, want high (paper 94.9%%)", in["ECA"])
	}
	if in["MENA"] > 0.3 || in["SA"] > 0.3 {
		t.Errorf("MENA/SA in-region = %.3f/%.3f, want low", in["MENA"], in["SA"])
	}
	if in["ECA"] <= in["LAC"] {
		t.Error("ECA must stay in-region far more than LAC")
	}
}

func TestGlobalProvidersRanking(t *testing.T) {
	s := fullStudy(t)
	provs := s.GlobalProviders()
	if len(provs) < 8 {
		t.Fatalf("only %d global providers observed", len(provs))
	}
	if !strings.Contains(provs[0].Org, "Cloudflare") {
		t.Errorf("leader = %s, paper: Cloudflare", provs[0].Org)
	}
	if provs[0].Countries < 30 {
		t.Errorf("leader footprint = %d countries, want ≈49", provs[0].Countries)
	}
	for i := 1; i < len(provs); i++ {
		if provs[i].Countries > provs[i-1].Countries {
			t.Fatal("footprints not ranked")
		}
	}
}

func TestDiversificationDirection(t *testing.T) {
	s := fullStudy(t)
	divs := s.Diversification()
	single := map[Category][2]int{}
	for _, d := range divs {
		c := single[d.Dominant]
		c[1]++
		if d.TopNetShare > 0.5 {
			c[0]++
		}
		single[d.Dominant] = c
	}
	gov := single[GovtSOE]
	glo := single[Global3P]
	if gov[1] == 0 || glo[1] == 0 {
		t.Fatal("degenerate dominant groups")
	}
	govShare := float64(gov[0]) / float64(gov[1])
	gloShare := float64(glo[0]) / float64(glo[1])
	// §7.2: 63 % of Govt&SOE countries vs 32 % of 3P-Global countries
	// depend on a single network — the ordering is the finding.
	if govShare <= gloShare {
		t.Errorf("single-network dependence: Govt %.2f vs Global %.2f; ordering inverted", govShare, gloShare)
	}
}

func TestClusterBranches(t *testing.T) {
	s := fullStudy(t)
	branches, err := s.ClusterBranches(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 3 {
		t.Fatalf("branch count = %d, want 3", len(branches))
	}
	find := func(code string) int {
		for i, br := range branches {
			for _, c := range br {
				if c == code {
					return i
				}
			}
		}
		return -1
	}
	// §5.3: Brazil, Vietnam and Russia share the Govt&SOE sub-tree.
	if find("BR") != find("VN") || find("BR") != find("RU") {
		t.Error("BR, VN and RU must share a branch")
	}
	// The Southern Cone splits across all three branches.
	ar, br, cl := find("AR"), find("BR"), find("CL")
	if ar == br || ar == cl || br == cl {
		t.Errorf("AR/BR/CL must sit in three different branches (got %d/%d/%d)", ar, br, cl)
	}
}

func TestCompareTopsites(t *testing.T) {
	s := fullStudy(t)
	c := s.CompareTopsites()
	// Appendix D: top sites lean on global providers far more than
	// governments do, and host domestically far less.
	if c.Topsites.URLs[Global3P] <= c.Gov.URLs[Global3P] {
		t.Error("top sites must use global providers more than governments")
	}
	if c.TopsitesSplit.GeoDomestic >= c.GovSplit.GeoDomestic {
		t.Error("top sites must serve domestically less than governments")
	}
	if c.Topsites.URLs[GovtSOE] < 0.05 || c.Topsites.URLs[GovtSOE] > 0.40 {
		t.Errorf("self-hosting share = %.3f, want ≈0.18", c.Topsites.URLs[GovtSOE])
	}
	if c.TopsitesSplit.RegDomestic > c.GovSplit.RegDomestic {
		t.Error("top sites must be foreign-registered more often than governments")
	}
}

func TestExplanatoryModel(t *testing.T) {
	s := fullStudy(t)
	coefs, vifs, err := s.ExplanatoryModel()
	if err != nil {
		t.Fatal(err)
	}
	if len(coefs) != 7 { // intercept + six covariates
		t.Fatalf("coefficients = %d", len(coefs))
	}
	for name, v := range vifs {
		// Table 7 keeps every VIF under 10; with our 61-country panel
		// the log-GDP regressor can drift slightly above, so the test
		// guards against outright degeneracy rather than the paper's
		// exact bound.
		if v >= 16 {
			t.Errorf("VIF[%s] = %.2f; implausibly collinear", name, v)
		}
	}
	byName := map[string]Coefficient{}
	for _, c := range coefs {
		byName[c.Name] = c
	}
	// The paper's strongest directional finding: higher network
	// readiness → fewer services hosted abroad.
	if byName["NRI"].Estimate >= 0.2 {
		t.Errorf("NRI coefficient = %+.3f, want negative-leaning (paper -0.660)", byName["NRI"].Estimate)
	}
}

func TestMethodYields(t *testing.T) {
	s := fullStudy(t)
	tld, domain, san := s.MethodYields()
	if math.Abs(tld+domain+san-1) > 1e-9 {
		t.Fatalf("yields don't sum to 1: %v %v %v", tld, domain, san)
	}
	if domain < tld {
		t.Error("domain matching must dominate (paper: 72.1% vs 27.6%)")
	}
	if san > 0.02 {
		t.Errorf("SAN yield = %.4f, paper reports 0.3%%", san)
	}
}

func TestStatsScaleConsistency(t *testing.T) {
	s := fullStudy(t)
	st := s.Stats()
	if st.ServerCountries < 40 || st.ServerCountries > 68 {
		t.Errorf("server countries = %d, want ≤68 and substantial", st.ServerCountries)
	}
	anycastShare := float64(st.AnycastIPs) / float64(st.UniqueIPs)
	if anycastShare < 0.03 || anycastShare > 0.25 {
		t.Errorf("anycast share = %.3f, paper reports 10.1%%", anycastShare)
	}
	govShare := float64(st.GovASes) / float64(st.ASes)
	if govShare < 0.2 || govShare > 0.75 {
		t.Errorf("government-AS share = %.3f, paper reports 36.5%%", govShare)
	}
}

func TestReportsRenderForEveryExperiment(t *testing.T) {
	s := fullStudy(t)
	for _, e := range Experiments() {
		out := s.Report(e.ID)
		if len(out) < 40 {
			t.Errorf("experiment %s renders %d bytes", e.ID, len(out))
		}
		if !strings.Contains(out, e.Title) {
			t.Errorf("experiment %s report missing its title", e.ID)
		}
	}
	if s.Report("nonsense") == "" || !strings.Contains(s.Report("nonsense"), "unknown") {
		t.Error("unknown experiment must say so")
	}
	all := s.ReportAll()
	if len(all) < 2000 {
		t.Errorf("ReportAll renders only %d bytes", len(all))
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12",
		"table1", "table2", "table3", "table4", "table5", "table7", "table8", "table9",
	}
	have := map[string]bool{}
	for _, e := range Experiments() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from the registry", id)
		}
	}
}

func TestCountrySubsetRun(t *testing.T) {
	s, err := Run(context.Background(), Config{Scale: 0.03, Countries: []string{"UY", "AR"}})
	if err != nil {
		t.Fatal(err)
	}
	shares := s.CountryShares()
	if len(shares) != 2 {
		t.Fatalf("countries = %d, want 2", len(shares))
	}
	if _, ok := shares["UY"]; !ok {
		t.Fatal("UY missing")
	}
}

func TestCountryDrilldownReport(t *testing.T) {
	s := fullStudy(t)
	out := s.Report("country:UY")
	for _, want := range []string{"Uruguay", "hosting signature", "Govt&SOE"} {
		if !strings.Contains(out, want) {
			t.Errorf("drill-down missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(s.Report("country:zz"), "unknown country") {
		t.Error("unknown country drill-down must say so")
	}
}

func TestHTTPSAdoptionExtension(t *testing.T) {
	s := fullStudy(t)
	a := s.HTTPSAdoption()
	if a.Hostnames == 0 {
		t.Fatal("no hostnames measured")
	}
	// Singanamalla et al.: over 70 % of government sites lack valid
	// HTTPS; our generator targets that headline.
	lacking := 1 - a.GlobalValid
	if lacking < 0.55 || lacking > 0.85 {
		t.Errorf("hostnames lacking valid HTTPS = %.3f, want ≈0.70", lacking)
	}
	if len(a.ByRegion) != 7 {
		t.Errorf("regions covered = %d", len(a.ByRegion))
	}
}

func TestTrendYearsShiftTowardGlobal(t *testing.T) {
	base := Config{Scale: 0.03, SkipTopsites: true,
		Countries: []string{"US", "DE", "BR", "IN", "JP", "UY", "PL", "ZA"}}
	now, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	later := base
	later.TrendYears = 6
	future, err := Run(context.Background(), later)
	if err != nil {
		t.Fatal(err)
	}
	a, b := now.GlobalShares(), future.GlobalShares()
	if b.URLs[Global3P] <= a.URLs[Global3P] {
		t.Fatalf("consolidation trend did not raise the global share: %.3f -> %.3f",
			a.URLs[Global3P], b.URLs[Global3P])
	}
	if b.URLs[GovtSOE] >= a.URLs[GovtSOE] {
		t.Fatalf("trend did not erode Govt&SOE: %.3f -> %.3f",
			a.URLs[GovtSOE], b.URLs[GovtSOE])
	}
}

func TestExportRoundTripAtStudyLevel(t *testing.T) {
	s := fullStudy(t)
	var buf bytes.Buffer
	if err := s.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := export.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A key analysis must give identical results on the reloaded data.
	orig := analysis.BuildIndexWorkers(s.ds, 1).GlobalShares()
	again := analysis.BuildIndexWorkers(reloaded, 1).GlobalShares()
	if orig.NByte != again.NByte {
		t.Fatal("byte totals changed across export/import")
	}
	if orig.URLs != again.URLs || orig.Bytes != again.Bytes {
		t.Fatal("global shares changed across export/import")
	}
	var csv bytes.Buffer
	if err := s.ExportCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if csv.Len() == 0 {
		t.Fatal("empty CSV export")
	}
}

func TestPageWeightExtensionDirection(t *testing.T) {
	s := fullStudy(t)
	res := analysis.Affordability(s.ds, s.env.World)
	if len(res.PerCountry) < 40 {
		t.Fatalf("only %d countries with landing sizes", len(res.PerCountry))
	}
	// Habib et al.: development correlates negatively with page weight.
	if res.PearsonHDI >= 0.1 {
		t.Errorf("corr(HDI, landing size) = %.2f, want negative-leaning", res.PearsonHDI)
	}
}

func TestLoadReconstructsStudy(t *testing.T) {
	s := fullStudy(t)
	var buf bytes.Buffer
	if err := s.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Analyses must agree exactly with the original study.
	if loaded.GlobalShares() != s.GlobalShares() {
		t.Fatal("global shares differ after reload")
	}
	if loaded.DomesticSplit() != s.DomesticSplit() {
		t.Fatal("domestic split differs after reload")
	}
	a, b := s.GlobalProviders(), loaded.GlobalProviders()
	if len(a) != len(b) || a[0] != b[0] {
		t.Fatal("provider footprints differ after reload")
	}
	// Reports render too (they only need the static world).
	for _, id := range []string{"fig2", "fig9", "table5", "ext-https", "country:UY"} {
		if out := loaded.Report(id); len(out) < 40 {
			t.Errorf("report %s too short on a loaded study", id)
		}
	}
}

// TestLoadedTable1ReportsMissingTallies: the export carries no
// classification-method tallies, so Table 1 on a loaded study must say
// so instead of printing 0.0 % for every method, while the run that
// wrote the export still prints its yields.
func TestLoadedTable1ReportsMissingTallies(t *testing.T) {
	s := fullStudy(t)
	var buf bytes.Buffer
	if err := s.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Report("table1")
	if !strings.Contains(got, "no classification tallies") || strings.Contains(got, "%") {
		t.Errorf("Table 1 on a loaded study prints figures the export does not carry:\n%s", got)
	}
	if fresh := s.Report("table1"); !strings.Contains(fresh, "discarded non-government URLs") {
		t.Errorf("Table 1 on the fresh run lost its yields:\n%s", fresh)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSameSeedByteIdenticalExport(t *testing.T) {
	// The full pipeline run twice with the same seed — including a
	// MaxURLs cap and concurrency > 1, the configuration that used to
	// race frontier admission — must export byte-identical datasets.
	cfg := Config{Scale: 0.03, Seed: 7,
		Countries:          []string{"US", "MX", "UY", "FR", "JP"},
		CountryConcurrency: 4,
		FetchConcurrency:   8,
		MaxURLsPerCrawl:    30,
	}
	export := func() []byte {
		s, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var jsonl, csv bytes.Buffer
		if err := s.ExportJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		if err := s.ExportCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return append(jsonl.Bytes(), csv.Bytes()...)
	}
	first := export()
	second := export()
	if !bytes.Equal(first, second) {
		i := 0
		for i < len(first) && i < len(second) && first[i] == second[i] {
			i++
		}
		lo, hi := i-60, i+60
		if lo < 0 {
			lo = 0
		}
		if hi > len(first) {
			hi = len(first)
		}
		t.Fatalf("exports diverge at byte %d:\n%q", i, first[lo:hi])
	}
}

func TestLoadPreservesMeasuredStats(t *testing.T) {
	// Version-2+ files carry the crawl's per-country statistics
	// verbatim; Load must keep them (not re-derive lossy approximations
	// from the records) and recompute only the dataset totals. The
	// sharpest check is a full round trip: export → Load → export must
	// be byte-identical, coverage counters included.
	s := fullStudy(t)
	var first bytes.Buffer
	if err := s.ExportJSONL(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := loaded.ExportJSONL(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("export → Load → export is not byte-identical: measured stats were clobbered")
	}
	// The live crawl's coverage accounting survived: attempts and
	// retries only exist in the measured stats, never in the records.
	if loaded.ds.TotalAttempted == 0 || loaded.ds.TotalAttempted != s.ds.TotalAttempted {
		t.Fatalf("attempted: loaded %d, want %d", loaded.ds.TotalAttempted, s.ds.TotalAttempted)
	}
	if loaded.ds.TotalRetries != s.ds.TotalRetries {
		t.Fatalf("retries: loaded %d, want %d", loaded.ds.TotalRetries, s.ds.TotalRetries)
	}
}
