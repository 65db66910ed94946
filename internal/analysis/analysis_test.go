package analysis

import (
	"math"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/world"
)

// rec builds a URLRecord with the fields the analyses read.
func rec(country string, region world.Region, cat world.Category, bytes int64, asn int, reg, serve string) dataset.URLRecord {
	return dataset.URLRecord{
		URL: "https://x." + country + "/" + serve, Host: "x." + country,
		Country: country, Region: region, Category: cat, Bytes: bytes,
		ASN: asn, Org: orgOf(asn), RegCountry: reg, ServeCountry: serve,
		IP: netip.AddrFrom4([4]byte{16, byte(asn % 250), 0, 1}),
	}
}

func orgOf(asn int) string {
	switch asn {
	case 13335:
		return "Cloudflare, Inc."
	case 8075:
		return "Microsoft, Inc."
	}
	return "Org"
}

// tinyDataset: two countries, controlled shares.
func tinyDataset() *dataset.Dataset {
	ds := &dataset.Dataset{PerCountry: map[string]*dataset.CountryStats{}}
	// UY: 3 Govt URLs of 100 bytes, 1 Global of 700 bytes. Domestic except the Global one.
	for i := 0; i < 3; i++ {
		r := rec("UY", world.LAC, world.CatGovtSOE, 100, 6057, "UY", "UY")
		r.URL = r.URL + string(rune('a'+i))
		r.GovAS = true
		ds.Records = append(ds.Records, r)
	}
	ds.Records = append(ds.Records, rec("UY", world.LAC, world.Cat3PGlobal, 700, 13335, "US", "US"))
	// DE: 2 Local (domestic), 2 Global (one domestic via anycast, one in US).
	for i := 0; i < 2; i++ {
		r := rec("DE", world.ECA, world.Cat3PLocal, 200, 64512, "DE", "DE")
		r.URL += string(rune('a' + i))
		ds.Records = append(ds.Records, r)
	}
	g1 := rec("DE", world.ECA, world.Cat3PGlobal, 400, 13335, "US", "DE")
	g1.Anycast = true
	ds.Records = append(ds.Records, g1)
	ds.Records = append(ds.Records, rec("DE", world.ECA, world.Cat3PGlobal, 400, 8075, "US", "US"))
	return ds
}

func TestGlobalShares(t *testing.T) {
	ds := tinyDataset()
	s := BuildIndexWorkers(ds, 1).GlobalShares()
	if math.Abs(s.URLs[world.CatGovtSOE]-3.0/8) > 1e-9 {
		t.Errorf("Govt URL share = %v, want 3/8", s.URLs[world.CatGovtSOE])
	}
	totalBytes := 3*100.0 + 700 + 2*200 + 400 + 400
	if math.Abs(s.Bytes[world.Cat3PGlobal]-1500/totalBytes) > 1e-9 {
		t.Errorf("Global byte share = %v", s.Bytes[world.Cat3PGlobal])
	}
}

func TestRegionalAndCountryShares(t *testing.T) {
	ds := tinyDataset()
	ix := BuildIndexWorkers(ds, 1)
	regional := ix.RegionalShares()
	if len(regional) != 2 {
		t.Fatalf("regions = %d", len(regional))
	}
	lac := regional[world.LAC]
	if math.Abs(lac.URLs[world.CatGovtSOE]-0.75) > 1e-9 {
		t.Errorf("LAC Govt share = %v, want 0.75", lac.URLs[world.CatGovtSOE])
	}
	country := ix.CountryShares()
	if math.Abs(country["DE"].URLs[world.Cat3PLocal]-0.5) > 1e-9 {
		t.Errorf("DE Local share = %v, want 0.5", country["DE"].URLs[world.Cat3PLocal])
	}
}

func TestMajorityMap(t *testing.T) {
	entries := BuildIndexWorkers(tinyDataset(), 1).MajorityMap()
	got := map[string]bool{}
	for _, e := range entries {
		got[e.Country] = e.ThirdPty
	}
	// UY bytes: 300 Govt vs 700 Global → third-party majority.
	if !got["UY"] {
		t.Error("UY must be majority third-party by bytes")
	}
	// DE bytes: 0 Govt → third-party majority.
	if !got["DE"] {
		t.Error("DE must be majority third-party")
	}
}

func TestDomesticIntl(t *testing.T) {
	s := BuildIndexWorkers(tinyDataset(), 1).DomesticIntl()
	// Registration: UY 3/4 domestic; DE 2/4 → 5/8 overall.
	if math.Abs(s.RegDomestic-5.0/8) > 1e-9 {
		t.Errorf("reg domestic = %v, want 5/8", s.RegDomestic)
	}
	// Location: UY 3/4; DE 3/4 → 6/8.
	if math.Abs(s.GeoDomestic-6.0/8) > 1e-9 {
		t.Errorf("geo domestic = %v, want 6/8", s.GeoDomestic)
	}
}

func TestDomesticIntlSkipsUnknownGeo(t *testing.T) {
	ds := tinyDataset()
	r := rec("UY", world.LAC, world.CatGovtSOE, 50, 6057, "UY", "")
	r.URL += "-excluded"
	ds.Records = append(ds.Records, r)
	s := BuildIndexWorkers(ds, 1).DomesticIntl()
	if s.NGeo != 8 {
		t.Fatalf("excluded record entered the geolocation denominator: NGeo=%d", s.NGeo)
	}
	if s.NReg != 9 {
		t.Fatalf("NReg = %d, want 9", s.NReg)
	}
}

func TestCrossBorderFlows(t *testing.T) {
	ix := BuildIndexWorkers(tinyDataset(), 1)
	share := func(flows []Flow, src, dst string) float64 {
		i := slices.IndexFunc(flows, func(f Flow) bool { return f.Src == src && f.Dst == dst })
		if i < 0 {
			return 0
		}
		return flows[i].Share
	}
	loc := ix.CrossBorderFlows(FlowLocation)
	if share(loc, "UY", "US") != 0.25 {
		t.Errorf("UY→US location share = %v, want 0.25", share(loc, "UY", "US"))
	}
	reg := ix.CrossBorderFlows(FlowRegistration)
	if share(reg, "DE", "US") != 0.5 {
		t.Errorf("DE→US registration share = %v, want 0.5", share(reg, "DE", "US"))
	}
	if share(loc, "DE", "DE") != 0 {
		t.Error("domestic serving is not a flow")
	}
}

func TestInRegionShareAndAffinity(t *testing.T) {
	w := world.New()
	ds := &dataset.Dataset{}
	// NZ→AU (both EAP, in-region), NZ→US (out), MX→US (out).
	ds.Records = append(ds.Records,
		rec("NZ", world.EAP, world.Cat3PGlobal, 1, 1, "AU", "AU"),
		rec("NZ", world.EAP, world.Cat3PGlobal, 1, 1, "US", "US"),
		rec("MX", world.LAC, world.Cat3PGlobal, 1, 1, "US", "US"),
	)
	ix := BuildIndexWorkers(ds, 1)
	inReg := ix.InRegionShare(w)
	if math.Abs(inReg[world.EAP]-0.5) > 1e-9 {
		t.Errorf("EAP in-region = %v, want 0.5", inReg[world.EAP])
	}
	if inReg[world.LAC] != 0 {
		t.Errorf("LAC in-region = %v, want 0", inReg[world.LAC])
	}
	aff := ix.RegionalAffinity(w)
	if aff[world.EAP]["AU"] != 1 {
		t.Errorf("EAP affinity = %v, want AU hosting 100%%", aff[world.EAP])
	}
}

func TestGDPRCompliance(t *testing.T) {
	w := world.New()
	ds := &dataset.Dataset{}
	ds.Records = append(ds.Records,
		rec("DE", world.ECA, world.Cat3PGlobal, 1, 1, "DE", "DE"), // compliant (domestic EU)
		rec("DE", world.ECA, world.Cat3PGlobal, 1, 1, "US", "FR"), // compliant (served in EU)
		rec("DE", world.ECA, world.Cat3PGlobal, 1, 1, "US", "US"), // violation
		rec("CH", world.ECA, world.Cat3PGlobal, 1, 1, "US", "US"), // not EU: ignored
	)
	ok, total := BuildIndexWorkers(ds, 1).GDPRCompliance(w)
	if ok != 2 || total != 3 {
		t.Fatalf("GDPR = %d/%d, want 2/3", ok, total)
	}
}

func TestAbroadInNAWE(t *testing.T) {
	ds := &dataset.Dataset{}
	ds.Records = append(ds.Records,
		rec("CN", world.EAP, world.Cat3PGlobal, 1, 1, "JP", "JP"), // abroad, not west
		rec("MX", world.LAC, world.Cat3PGlobal, 1, 1, "US", "US"), // abroad, west
		rec("MX", world.LAC, world.CatGovtSOE, 1, 2, "MX", "MX"),  // domestic: excluded
	)
	if got := BuildIndexWorkers(ds, 1).AbroadInNAWE(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("NA/WE share = %v, want 0.5", got)
	}
}

func TestGlobalProviderFootprints(t *testing.T) {
	ds := tinyDataset()
	fp := BuildIndexWorkers(ds, 1).GlobalProviderFootprints()
	if len(fp) != 2 {
		t.Fatalf("footprints = %+v", fp)
	}
	if fp[0].ASN != 13335 || fp[0].Countries != 2 {
		t.Fatalf("leader = %+v, want Cloudflare in 2 countries", fp[0])
	}
	if fp[1].ASN != 8075 || fp[1].Countries != 1 {
		t.Fatalf("runner-up = %+v", fp[1])
	}
}

func TestDiversifyAndSingleNetwork(t *testing.T) {
	ds := tinyDataset()
	divs := BuildIndexWorkers(ds, 1).Diversify()
	if len(divs) != 2 {
		t.Fatalf("diversifications = %+v", divs)
	}
	byC := map[string]Diversification{}
	for _, d := range divs {
		byC[d.Country] = d
	}
	// UY bytes: 300 on ANTEL, 700 on Cloudflare → top share 0.7, HHI 0.58.
	uy := byC["UY"]
	if math.Abs(uy.TopNetShare-0.7) > 1e-9 {
		t.Errorf("UY top net share = %v", uy.TopNetShare)
	}
	if math.Abs(uy.HHIBytes-(0.09+0.49)) > 1e-9 {
		t.Errorf("UY byte HHI = %v, want 0.58", uy.HHIBytes)
	}
	if uy.DominantCat != world.Cat3PGlobal {
		t.Errorf("UY dominant = %v", uy.DominantCat)
	}
	// UY concentrates >50 % of bytes on one network, DE does not; both
	// are Global-dominant, so the group share is 1/2.
	singles := SingleNetworkShare(divs)
	if singles[world.Cat3PGlobal] != 0.5 {
		t.Errorf("single-network share = %v, want 0.5", singles)
	}
}

func TestHHIByGroup(t *testing.T) {
	urls, bytes := HHIByGroup(BuildIndexWorkers(tinyDataset(), 1).Diversify())
	if len(urls[world.Cat3PGlobal]) != 2 || len(bytes[world.Cat3PGlobal]) != 2 {
		t.Fatalf("grouping wrong: %v %v", urls, bytes)
	}
}

func TestClusterCountriesAndBranches(t *testing.T) {
	// Three archetypes across six countries.
	ds := &dataset.Dataset{}
	mk := func(code string, cat world.Category) {
		for i := 0; i < 10; i++ {
			r := rec(code, world.ECA, cat, 100, 1, code, code)
			r.URL += string(rune('a' + i))
			ds.Records = append(ds.Records, r)
		}
	}
	mk("AA", world.CatGovtSOE)
	mk("AB", world.CatGovtSOE)
	mk("BA", world.Cat3PLocal)
	mk("BB", world.Cat3PLocal)
	mk("CA", world.Cat3PGlobal)
	mk("CB", world.Cat3PGlobal)
	branches, err := BranchAssignment(BuildIndexWorkers(ds, 1), SignatureURLs)
	if err != nil {
		t.Fatal(err)
	}
	if branches["AA"] != world.CatGovtSOE || branches["AB"] != world.CatGovtSOE {
		t.Errorf("Govt branch wrong: %v", branches)
	}
	if branches["BA"] != world.Cat3PLocal || branches["CB"] != world.Cat3PGlobal {
		t.Errorf("branches wrong: %v", branches)
	}
}

func TestCompareTopsites(t *testing.T) {
	ds := tinyDataset()
	// Topsites only in DE; the gov side must restrict to DE too.
	top := rec("DE", world.ECA, world.CatGovtSOE, 100, 99, "US", "US")
	top.TopsiteSelf = true
	ds.Topsites = append(ds.Topsites, top)
	c := BuildIndexWorkers(ds, 1).CompareTopsites()
	if c.Topsites.URLs[world.CatGovtSOE] != 1 {
		t.Errorf("self-hosting share = %v", c.Topsites.URLs[world.CatGovtSOE])
	}
	// Gov side covers only DE (4 URLs), none Govt&SOE.
	if c.Gov.NURL != 4 {
		t.Errorf("gov records in subset = %d, want 4", c.Gov.NURL)
	}
}

func TestExplainForeignHostingNeedsObservations(t *testing.T) {
	w := world.New()
	ds := tinyDataset()
	if _, err := ExplainForeignHosting(BuildIndexWorkers(ds, 1), w); err == nil {
		t.Fatal("two countries cannot support a six-regressor model")
	}
}

func TestExplainForeignHostingFullPanel(t *testing.T) {
	w := world.New()
	ds := &dataset.Dataset{}
	// One record per panel country with a synthetic foreign share
	// proportional to log-users (so the users coefficient must be
	// strongly positive).
	for _, c := range w.Panel() {
		if c.Landing == 0 {
			continue
		}
		n := 20
		foreign := int(float64(n) * math.Min(0.9, math.Log1p(c.UsersMillion)/8))
		for i := 0; i < n; i++ {
			serve := c.Code
			if i < foreign {
				serve = "US"
				if c.Code == "US" {
					serve = "DE"
				}
			}
			r := rec(c.Code, c.Region, world.CatGovtSOE, 1, 1, c.Code, serve)
			r.URL += string(rune('a'+i%26)) + string(rune('a'+i/26))
			ds.Records = append(ds.Records, r)
		}
	}
	res, err := ExplainForeignHosting(BuildIndexWorkers(ds, 1), w)
	if err != nil {
		t.Fatal(err)
	}
	// Coefficient 1 is internet_users.
	if res.OLS.Coef[1] <= 0 {
		t.Fatalf("users coefficient = %v, want strongly positive", res.OLS.Coef[1])
	}
	if res.OLS.PValue[1] > 0.05 {
		t.Fatalf("users p-value = %v, want significant", res.OLS.PValue[1])
	}
	for name, v := range res.VIF {
		if v > 25 {
			t.Errorf("VIF[%s] = %v, implausibly collinear", name, v)
		}
	}
}

func TestHTTPSValidity(t *testing.T) {
	ds := &dataset.Dataset{}
	mkhttps := func(country, host string, valid bool, n int) {
		for i := 0; i < n; i++ {
			r := rec(country, world.ECA, world.CatGovtSOE, 1, 1, country, country)
			r.Host, r.HTTPSValid = host, valid
			r.URL = "https://" + host + "/" + string(rune('a'+i))
			ds.Records = append(ds.Records, r)
		}
	}
	// Hostnames are the unit: a big invalid portal counts once.
	mkhttps("DE", "portal.de", false, 10)
	mkhttps("DE", "ok.de", true, 1)
	mkhttps("FR", "ok.gouv.fr", true, 1)
	a := HTTPSValidity(ds)
	if a.Hostnames != 3 {
		t.Fatalf("hostnames = %d", a.Hostnames)
	}
	if math.Abs(a.GlobalValid-2.0/3) > 1e-9 {
		t.Fatalf("global valid = %v, want 2/3", a.GlobalValid)
	}
	if math.Abs(a.ByCountry["DE"]-0.5) > 1e-9 || a.ByCountry["FR"] != 1 {
		t.Fatalf("per-country = %v", a.ByCountry)
	}
	top := a.TopValidityCountries(1)
	if len(top) != 1 || top[0] != "FR" {
		t.Fatalf("top = %v", top)
	}
}

func TestRegionFlowMatrix(t *testing.T) {
	w := world.New()
	ds := &dataset.Dataset{}
	ds.Records = append(ds.Records,
		rec("CN", world.EAP, world.Cat3PGlobal, 1, 1, "JP", "JP"),
		rec("CN", world.EAP, world.Cat3PGlobal, 1, 1, "US", "US"),
		rec("CN", world.EAP, world.CatGovtSOE, 1, 2, "CN", "CN"), // domestic: not a flow
	)
	m := BuildIndexWorkers(ds, 1).RegionFlowMatrix(w, FlowLocation)
	if m[world.EAP][world.EAP] != 1 || m[world.EAP][world.NA] != 1 {
		t.Fatalf("matrix = %v", m)
	}
	if len(m) != 1 {
		t.Fatalf("unexpected source regions: %v", m)
	}
}
