package world

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPanelComposition(t *testing.T) {
	m := New()
	if got := len(m.Panel()); got != 61 {
		t.Fatalf("panel size = %d, want 61 (Table 9)", got)
	}
	if got := len(m.All()); got != 68 {
		t.Fatalf("total countries = %d, want 68 (§4.2: servers located in 68 countries)", got)
	}
	wantPerRegion := map[Region]int{
		NA: 2, LAC: 8, ECA: 29, MENA: 5, SSA: 2, SA: 3, EAP: 12,
	}
	for reg, want := range wantPerRegion {
		if got := len(m.InRegion(reg)); got != want {
			t.Errorf("region %s: %d countries, want %d", reg, got, want)
		}
	}
}

func TestPanelCoversInternetPopulation(t *testing.T) {
	m := New()
	var pop float64
	for _, c := range m.Panel() {
		pop += c.PctWorldPop
	}
	// Table 9: 82.70 % of the world's Internet population.
	if pop < 80 || pop > 85 {
		t.Fatalf("combined Internet population share = %.2f%%, want ≈82.7%%", pop)
	}
}

func TestCountryLookup(t *testing.T) {
	m := New()
	uy := m.Country("UY")
	if uy == nil || uy.Name != "Uruguay" || uy.Region != LAC {
		t.Fatalf("UY lookup broken: %+v", uy)
	}
	if m.Country("XX") != nil {
		t.Fatal("unknown country should return nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustCountry should panic on unknown code")
		}
	}()
	m.MustCountry("XX")
}

func TestHostOnlyCountriesExcludedFromPanel(t *testing.T) {
	m := New()
	for _, code := range []string{"NC", "AT", "IE", "LU", "FI", "SK", "MO"} {
		c := m.Country(code)
		if c == nil {
			t.Fatalf("host-only country %s missing", code)
		}
		if c.Study() {
			t.Errorf("%s should be host-only", code)
		}
	}
}

func TestTable8Totals(t *testing.T) {
	m := New()
	var landing, internal, hostnames int
	for _, c := range m.Panel() {
		landing += c.Landing
		internal += c.InternalURLs
		hostnames += c.Hostnames
	}
	// Table 3 totals: 15,878 landing URLs and 1,017,865 internal URLs
	// (our Table 8 transcription sums slightly lower).
	if landing < 14000 || landing > 17000 {
		t.Errorf("total landing URLs = %d, want ≈15,878", landing)
	}
	if internal < 950_000 || internal > 1_100_000 {
		t.Errorf("total internal URLs = %d, want ≈1,017,865", internal)
	}
	if hostnames < 12_500 || hostnames > 14_500 {
		t.Errorf("total hostnames = %d, want ≈13,483", hostnames)
	}
}

func TestKoreaHasEmptyEstate(t *testing.T) {
	m := New()
	kr := m.MustCountry("KR")
	if kr.Landing != 0 || kr.InternalURLs != 0 {
		t.Fatalf("South Korea contributed no URLs in the paper (Table 8): %+v", kr)
	}
	if !kr.Study() {
		t.Fatal("KR is still part of the 61-country panel")
	}
}

func TestEUMembership(t *testing.T) {
	m := New()
	n := 0
	for _, c := range m.Panel() {
		if c.EU {
			n++
		}
	}
	if n != 17 {
		t.Fatalf("EU members in panel = %d, want 17", n)
	}
	if !m.MustCountry("DE").EU || m.MustCountry("GB").EU || m.MustCountry("CH").EU {
		t.Fatal("EU flags wrong for DE/GB/CH")
	}
}

func TestDistanceSanity(t *testing.T) {
	m := New()
	parisBerlin := Distance(m.MustCountry("FR"), m.MustCountry("DE"))
	if parisBerlin < 700 || parisBerlin > 1100 {
		t.Errorf("Paris-Berlin distance = %.0f km, want ≈880", parisBerlin)
	}
	if d := Distance(m.MustCountry("US"), m.MustCountry("US")); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
	nycSyd := Distance(m.MustCountry("US"), m.MustCountry("AU"))
	if nycSyd < 12_000 || nycSyd > 18_000 {
		t.Errorf("US-AU distance = %.0f km, out of plausible range", nycSyd)
	}
}

func TestDistanceSymmetricQuick(t *testing.T) {
	f := func(a, b int16) bool {
		la, lo := float64(a%90), float64(b%180)
		lb, lo2 := float64(b%90), float64(a%180)
		d1 := DistanceKM(la, lo, lb, lo2)
		d2 := DistanceKM(lb, lo2, la, lo)
		return math.Abs(d1-d2) < 1e-6 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoadThreshold(t *testing.T) {
	m := New()
	us := m.MustCountry("US")
	sg := m.MustCountry("SG")
	if us.RoadThresholdMS() <= sg.RoadThresholdMS() {
		t.Fatal("continental country must have a larger threshold than a city state")
	}
	if sg.RoadThresholdMS() <= 0 {
		t.Fatal("threshold must be positive")
	}
}

func TestGovSuffixConventions(t *testing.T) {
	m := New()
	cases := map[string]string{
		"UY": "gub.uy", "FR": "gouv.fr", "JP": "go.jp", "CH": "admin.ch",
		"GB": "gov.uk", "MX": "gob.mx",
	}
	for code, want := range cases {
		c := m.MustCountry(code)
		if len(c.GovSuffix) == 0 || c.GovSuffix[0] != want {
			t.Errorf("%s gov suffix = %v, want %s", code, c.GovSuffix, want)
		}
	}
	// The paper singles out Germany, Poland and the Netherlands as
	// countries without (or not adhering to) a gov-TLD convention.
	for _, code := range []string{"DE", "NL"} {
		if len(m.MustCountry(code).GovSuffix) != 0 {
			t.Errorf("%s should have no government TLD convention", code)
		}
	}
}

func TestMixNormalize(t *testing.T) {
	mix := Mix{2, 1, 1, 0}.Normalize()
	if math.Abs(mix[0]-0.5) > 1e-9 || math.Abs(mix[1]-0.25) > 1e-9 {
		t.Fatalf("normalize wrong: %v", mix)
	}
	zero := Mix{}.Normalize()
	for _, v := range zero {
		if v != 0 {
			t.Fatal("zero mix should stay zero")
		}
	}
}

func TestMixNormalizeSumsToOneQuick(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		if a == 0 && b == 0 && c == 0 && d == 0 {
			return true
		}
		m := Mix{float64(a), float64(b), float64(c), float64(d)}.Normalize()
		var sum float64
		for _, v := range m {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixDominant(t *testing.T) {
	if (Mix{0.1, 0.6, 0.2, 0.1}).Dominant() != Cat3PLocal {
		t.Fatal("dominant detection broken")
	}
}

func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{
		CatGovtSOE: "Govt&SOE", Cat3PLocal: "3P Local",
		Cat3PGlobal: "3P Global", Cat3PRegional: "3P Regional",
	}
	for cat, s := range want {
		if cat.String() != s {
			t.Errorf("%d.String() = %q, want %q", cat, cat.String(), s)
		}
	}
}

func TestSameContinentRegion(t *testing.T) {
	m := New()
	same := func(a, b string) bool {
		return m.MustCountry(a).Region.Continent() == m.MustCountry(b).Region.Continent()
	}
	if !same("US", "BR") {
		t.Error("NA and LAC share the Americas")
	}
	if same("DE", "JP") {
		t.Error("ECA and EAP are different continents")
	}
}
