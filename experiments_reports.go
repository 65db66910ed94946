package govhost

// This file implements the per-experiment report renderers. Every
// renderer prints the paper's published value next to the measured one
// so drift is visible at a glance; absolute counts are additionally
// rescaled by 1/Scale where the paper reports raw sizes.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/fetch"
	"repro/internal/probing"
	"repro/internal/report"
	"repro/internal/webgen"
	"repro/internal/world"
)

var regionOrder = []world.Region{world.SSA, world.ECA, world.NA, world.LAC, world.MENA, world.EAP, world.SA}

func (s *Study) reportFig1() string {
	entries := s.index().MajorityMap()
	var brown, purple []string
	for _, e := range entries {
		if e.ThirdPty {
			brown = append(brown, e.Country)
		} else {
			purple = append(purple, e.Country)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Majority third-party (brown, %d countries):\n  %s\n",
		len(brown), strings.Join(brown, " "))
	fmt.Fprintf(&b, "Majority Govt&SOE (purple, %d countries):\n  %s\n",
		len(purple), strings.Join(purple, " "))
	b.WriteString(report.PaperVsMeasured("countries with 3P byte majority",
		"~42 of 61", fmt.Sprintf("%d of %d", len(brown), len(entries))))
	return b.String()
}

func (s *Study) reportTable1() string {
	tld, domain, san := s.MethodYields()
	var b strings.Builder
	b.WriteString(report.PaperVsMeasured("internal URLs via government TLDs", "27.6%", report.Pct(tld)) + "\n")
	b.WriteString(report.PaperVsMeasured("internal URLs via domain matching", "72.1%", report.Pct(domain)) + "\n")
	b.WriteString(report.PaperVsMeasured("internal URLs via SANs", "0.3%", report.Pct(san)) + "\n")
	fmt.Fprintf(&b, "  discarded non-government URLs: %d\n", s.ds.Discarded)
	return b.String()
}

func (s *Study) reportTable2() string {
	// The paper's example is www.gub.uy on ANTEL (AS6057). Print the
	// record of a Uruguayan government URL hosted on a Govt&SOE
	// network, preferring the flavour ASN.
	for i := range s.ds.Records {
		r := &s.ds.Records[i]
		if r.Country != "UY" || r.Category != GovtSOE {
			continue
		}
		t := &report.Table{Header: []string{"Field", "Value"}}
		t.AddRow("URL", r.URL)
		t.AddRow("IP address", r.IP.String())
		t.AddRow("ASN", fmt.Sprint(r.ASN))
		t.AddRow("Organization", r.Org)
		t.AddRow("Registration", r.RegCountry)
		t.AddRow("Geolocation", r.ServeCountry)
		return t.String()
	}
	return "no Uruguayan Govt&SOE record in this run (increase Scale)\n"
}

func (s *Study) reportTable3() string {
	st := s.Stats()
	scale := s.ds.Scale
	up := func(v int) string {
		return fmt.Sprintf("%d (×1/scale ≈ %.0f)", v, float64(v)/scale)
	}
	var b strings.Builder
	b.WriteString(report.PaperVsMeasured("landing URLs", "15,878", up(st.LandingURLs)) + "\n")
	b.WriteString(report.PaperVsMeasured("internal URLs", "1,017,865", up(st.InternalURLs)) + "\n")
	b.WriteString(report.PaperVsMeasured("unique hostnames", "13,483", up(st.UniqueHostnames)) + "\n")
	b.WriteString(report.PaperVsMeasured("serving ASes", "950", fmt.Sprint(st.ASes)) + "\n")
	b.WriteString(report.PaperVsMeasured("government ASes", "347 (36.5%)",
		fmt.Sprintf("%d (%.1f%%)", st.GovASes, 100*float64(st.GovASes)/float64(max(st.ASes, 1)))) + "\n")
	b.WriteString(report.PaperVsMeasured("unique IP addresses", "4,286", up(st.UniqueIPs)) + "\n")
	b.WriteString(report.PaperVsMeasured("anycast addresses", "433 (10.1%)",
		fmt.Sprintf("%d (%.1f%%)", st.AnycastIPs, 100*float64(st.AnycastIPs)/float64(max(st.UniqueIPs, 1)))) + "\n")
	b.WriteString(report.PaperVsMeasured("countries with servers located", "68", fmt.Sprint(st.ServerCountries)) + "\n")
	return b.String()
}

// geoValidationStats folds the dataset's verdicts into Table 4's
// unique-address accounting; the fold itself lives in analysis so the
// serving daemon shares it.
func geoValidationStats(ds *dataset.Dataset) probing.Stats {
	return analysis.GeoValidation(ds)
}

func (s *Study) reportTable4() string {
	st := geoValidationStats(s.ds)
	uniAP, uniMG, uniUR, anyAP, anyUR := st.Fractions()
	var b strings.Builder
	b.WriteString(report.PaperVsMeasured("unicast validated by active probing", "0.41", report.Frac(uniAP)) + "\n")
	b.WriteString(report.PaperVsMeasured("unicast validated by multistage geolocation", "0.57", report.Frac(uniMG)) + "\n")
	b.WriteString(report.PaperVsMeasured("unicast unresolved", "0.02", report.Frac(uniUR)) + "\n")
	b.WriteString(report.PaperVsMeasured("anycast validated by active probing", "0.83", report.Frac(anyAP)) + "\n")
	b.WriteString(report.PaperVsMeasured("anycast unresolved", "0.17", report.Frac(anyUR)) + "\n")
	return b.String()
}

func categoryRow(m [4]float64) string {
	return fmt.Sprintf("Govt&SOE %.2f | 3P Local %.2f | 3P Global %.2f | 3P Regional %.2f",
		m[GovtSOE], m[Local3P], m[Global3P], m[Region3P])
}

func (s *Study) reportFig2() string {
	sh := s.GlobalShares()
	var b strings.Builder
	b.WriteString("URLs:  " + categoryRow(sh.URLs) + "\n")
	b.WriteString("Bytes: " + categoryRow(sh.Bytes) + "\n")
	b.WriteString(report.PaperVsMeasured("URLs  (Govt/Local/Global/Regional)", "0.39/0.34/0.25/0.03",
		fmt.Sprintf("%.2f/%.2f/%.2f/%.2f", sh.URLs[0], sh.URLs[1], sh.URLs[2], sh.URLs[3])) + "\n")
	b.WriteString(report.PaperVsMeasured("Bytes (Govt/Local/Global/Regional)", "0.47/0.28/0.23/0.02",
		fmt.Sprintf("%.2f/%.2f/%.2f/%.2f", sh.Bytes[0], sh.Bytes[1], sh.Bytes[2], sh.Bytes[3])) + "\n")
	b.WriteString(report.PaperVsMeasured("third-party share of URLs", "62%", report.Pct(1-sh.URLs[GovtSOE])) + "\n")
	b.WriteString(report.PaperVsMeasured("third-party share of bytes", "53%", report.Pct(1-sh.Bytes[GovtSOE])) + "\n")
	return b.String()
}

func (s *Study) reportFig3() string {
	c := s.CompareTopsites()
	var b strings.Builder
	b.WriteString("Government URLs:  " + categoryRow(c.Gov.URLs) + "\n")
	b.WriteString("Government bytes: " + categoryRow(c.Gov.Bytes) + "\n")
	b.WriteString("Top-site URLs  (Self/Local/Global/Regional): " + categoryRow(c.Topsites.URLs) + "\n")
	b.WriteString("Top-site bytes (Self/Local/Global/Regional): " + categoryRow(c.Topsites.Bytes) + "\n")
	b.WriteString(report.PaperVsMeasured("top sites on 3P Global (URLs)", "0.78", report.Frac(c.Topsites.URLs[Global3P])) + "\n")
	b.WriteString(report.PaperVsMeasured("top sites self-hosting (URLs)", "0.18", report.Frac(c.Topsites.URLs[GovtSOE])) + "\n")
	b.WriteString(report.PaperVsMeasured("governments on-premise (URLs, subset)", "0.46", report.Frac(c.Gov.URLs[GovtSOE])) + "\n")
	b.WriteString(report.PaperVsMeasured("governments on-premise (bytes, subset)", "0.69", report.Frac(c.Gov.Bytes[GovtSOE])) + "\n")
	return b.String()
}

func (s *Study) reportFig4() string {
	regional := s.index().RegionalShares()
	paperURLs := map[world.Region]string{
		world.SSA: "0.01/0.46/0.39/0.14", world.ECA: "0.24/0.46/0.28/0.02",
		world.NA: "0.25/0.17/0.58/0.00", world.LAC: "0.41/0.25/0.30/0.03",
		world.MENA: "0.43/0.10/0.47/0.00", world.EAP: "0.48/0.35/0.14/0.02",
		world.SA: "0.80/0.09/0.11/0.01",
	}
	paperBytes := map[world.Region]string{
		world.SSA: "0.00/0.48/0.34/0.17", world.ECA: "0.18/0.61/0.19/0.02",
		world.NA: "0.22/0.10/0.68/0.00", world.LAC: "0.27/0.30/0.41/0.01",
		world.EAP: "0.50/0.26/0.22/0.02", world.MENA: "0.71/0.03/0.26/0.00",
		world.SA: "0.95/0.02/0.03/0.00",
	}
	t := &report.Table{Header: []string{"Region", "URLs paper", "URLs measured", "Bytes paper", "Bytes measured"}}
	for _, reg := range regionOrder {
		sh, ok := regional[reg]
		if !ok {
			continue
		}
		t.AddRow(string(reg), paperURLs[reg],
			fmt.Sprintf("%.2f/%.2f/%.2f/%.2f", sh.URLs[0], sh.URLs[1], sh.URLs[2], sh.URLs[3]),
			paperBytes[reg],
			fmt.Sprintf("%.2f/%.2f/%.2f/%.2f", sh.Bytes[0], sh.Bytes[1], sh.Bytes[2], sh.Bytes[3]))
	}
	return "categories: Govt&SOE/3P Local/3P Global/3P Regional\n" + t.String()
}

func (s *Study) reportFig5() string {
	var b strings.Builder
	for _, byBytes := range []bool{false, true} {
		kind := analysis.SignatureURLs
		label := "URLs"
		if byBytes {
			kind = analysis.SignatureBytes
			label = "Bytes"
		}
		branches, err := analysis.BranchAssignment(s.index(), kind)
		if err != nil {
			fmt.Fprintf(&b, "%s: clustering failed: %v\n", label, err)
			continue
		}
		byCat := map[world.Category][]string{}
		for code, cat := range branches {
			byCat[cat] = append(byCat[cat], code)
		}
		fmt.Fprintf(&b, "%s signature dendrogram, three-branch cut:\n", label)
		for _, cat := range world.Categories {
			if len(byCat[cat]) == 0 {
				continue
			}
			sort.Strings(byCat[cat])
			fmt.Fprintf(&b, "  %-12s (%2d): %s\n", cat, len(byCat[cat]), strings.Join(byCat[cat], " "))
		}
	}
	if branches, err := analysis.BranchAssignment(s.index(), analysis.SignatureURLs); err == nil {
		agree, total := 0, 0
		for code, got := range branches {
			want, ok := world.PaperDominant(code)
			if !ok {
				continue
			}
			total++
			if got == want {
				agree++
			}
		}
		if total > 0 {
			b.WriteString(report.PaperVsMeasured("branch membership agreement with Fig. 5",
				"100% (by definition)", fmt.Sprintf("%d/%d (%.0f%%)", agree, total, 100*float64(agree)/float64(total))) + "\n")
		}
	}
	b.WriteString("paper: three principal branches (Govt&SOE / 3P Local / 3P Global);\n")
	b.WriteString("e.g. BR, VN, RU share the Govt&SOE branch; AR global, BR govt, CL local.\n")
	if root, err := analysis.ClusterCountries(s.index(), analysis.SignatureURLs); err == nil {
		b.WriteString("\nURL-signature dendrogram (Ward heights):\n")
		b.WriteString(cluster.Render(root))
	}
	return b.String()
}

func (s *Study) reportFig6() string {
	sp := s.DomesticSplit()
	var b strings.Builder
	b.WriteString(report.PaperVsMeasured("URLs from domestically registered orgs", "0.77", report.Frac(sp.RegDomestic)) + "\n")
	b.WriteString(report.PaperVsMeasured("URLs served from domestic servers", "0.87", report.Frac(sp.GeoDomestic)) + "\n")
	return b.String()
}

func (s *Study) reportFig7() string {
	c := s.CompareTopsites()
	var b strings.Builder
	b.WriteString(report.PaperVsMeasured("gov URLs domestically registered (subset)", "0.78", report.Frac(c.GovSplit.RegDomestic)) + "\n")
	b.WriteString(report.PaperVsMeasured("gov URLs served domestically (subset)", "0.89", report.Frac(c.GovSplit.GeoDomestic)) + "\n")
	b.WriteString(report.PaperVsMeasured("top-site URLs domestically registered", "0.11", report.Frac(c.TopsitesSplit.RegDomestic)) + "\n")
	b.WriteString(report.PaperVsMeasured("top-site URLs served domestically", "0.49", report.Frac(c.TopsitesSplit.GeoDomestic)) + "\n")
	return b.String()
}

func (s *Study) reportFig8() string {
	regional := s.index().RegionalDomesticIntl()
	paperReg := map[world.Region]string{
		world.SSA: "0.45", world.MENA: "0.52", world.LAC: "0.66", world.ECA: "0.71",
		world.EAP: "0.87", world.SA: "0.88", world.NA: "0.91",
	}
	paperGeo := map[world.Region]string{
		world.SSA: "0.52", world.MENA: "0.74", world.LAC: "0.80", world.ECA: "0.85",
		world.SA: "0.94", world.EAP: "0.96", world.NA: "0.98",
	}
	t := &report.Table{Header: []string{"Region", "Reg paper", "Reg measured", "Geo paper", "Geo measured"}}
	for _, reg := range regionOrder {
		sp, ok := regional[reg]
		if !ok {
			continue
		}
		t.AddRow(string(reg), paperReg[reg], report.Frac(sp.RegDomestic),
			paperGeo[reg], report.Frac(sp.GeoDomestic))
	}
	return "fraction of government URLs that are domestic\n" + t.String()
}

func (s *Study) reportFig9() string {
	var b strings.Builder
	loc := s.CrossBorderFlows(ByLocation)
	bilateral := []struct {
		src, dst, paper string
	}{
		{"MX", "US", "79.2%"},
		{"CN", "JP", "26.4%"},
		{"NZ", "AU", "40%"},
		{"MA", "FR", "29.8%"},
		{"FR", "NC", "18.0%"},
		{"CR", "US", "49.7%"},
		{"BR", "US", "1.8%"},
	}
	for _, bi := range bilateral {
		var share float64
		for _, f := range loc {
			if f.Src == bi.src && f.Dst == bi.dst {
				share = f.Share
			}
		}
		b.WriteString(report.PaperVsMeasured(
			fmt.Sprintf("%s URLs served from %s", bi.src, bi.dst), bi.paper, report.Pct(share)) + "\n")
	}
	b.WriteString(report.PaperVsMeasured("foreign-served URLs on NA/W-Europe servers", "57%",
		report.Pct(s.index().AbroadInNAWE())) + "\n")
	frac, total := s.GDPRCompliance()
	b.WriteString(report.PaperVsMeasured("EU URLs served inside the EU (GDPR)", "98.3%",
		fmt.Sprintf("%s (n=%d)", report.Pct(frac), total)) + "\n")

	// Top location flows for context.
	b.WriteString("largest location flows (src→dst, share of src URLs):\n")
	sort.Slice(loc, func(i, j int) bool { return loc[i].URLs > loc[j].URLs })
	for i, f := range loc {
		if i >= 12 {
			break
		}
		fmt.Fprintf(&b, "  %s→%s %s (%d URLs)\n", f.Src, f.Dst, report.Pct(f.Share), f.URLs)
	}

	// The circular Sankey of Fig. 9b as a region-to-region matrix:
	// each row shows where a region's cross-border URLs land.
	matrix := s.index().RegionFlowMatrix(s.env.World, analysis.FlowLocation)
	t := &report.Table{Header: append([]string{"src\\dst"}, regionNames()...)}
	for _, src := range regionOrder {
		row := []string{string(src)}
		var total int
		for _, dst := range regionOrder {
			total += matrix[src][dst]
		}
		for _, dst := range regionOrder {
			if total == 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.0f%%", 100*float64(matrix[src][dst])/float64(total)))
			}
		}
		t.AddRow(row...)
	}
	b.WriteString("region-to-region server-location flows (row-normalized):\n")
	b.WriteString(t.String())
	return b.String()
}

func regionNames() []string {
	out := make([]string, len(regionOrder))
	for i, r := range regionOrder {
		out[i] = string(r)
	}
	return out
}

func (s *Study) reportTable5() string {
	inRegion := s.InRegionDependency()
	paper := map[string]string{
		"ECA": "94.87", "EAP": "80.79", "NA": "59.89", "LAC": "3.41",
		"SSA": "2.95", "MENA": "0.00", "SA": "0.00",
	}
	t := &report.Table{Header: []string{"Region", "% in-region paper", "% in-region measured"}}
	for _, reg := range []string{"ECA", "EAP", "NA", "LAC", "SSA", "MENA", "SA"} {
		t.AddRow(reg, paper[reg], fmt.Sprintf("%.2f", 100*inRegion[reg]))
	}
	return t.String()
}

func (s *Study) reportFig10() string {
	provs := s.GlobalProviders()
	var b strings.Builder
	t := &report.Table{Header: []string{"Rank", "Organization", "ASN", "Countries", ""}}
	maxC := 1
	if len(provs) > 0 {
		maxC = provs[0].Countries
	}
	for i, p := range provs {
		if i >= 15 {
			break
		}
		t.AddRow(fmt.Sprint(i+1), p.Org, fmt.Sprint(p.ASN), fmt.Sprint(p.Countries),
			report.Bar(float64(p.Countries)/float64(maxC), 24))
	}
	b.WriteString(t.String())
	lead := ProviderFootprint{}
	var second int
	if len(provs) > 0 {
		lead = provs[0]
	}
	if len(provs) > 1 {
		second = provs[1].Countries
	}
	b.WriteString(report.PaperVsMeasured("leading provider", "Cloudflare, 49 countries",
		fmt.Sprintf("%s, %d countries", lead.Org, lead.Countries)) + "\n")
	b.WriteString(report.PaperVsMeasured("lead ≈ 2× runner-up", "49 vs 31",
		fmt.Sprintf("%d vs %d", lead.Countries, second)) + "\n")
	return b.String()
}

func (s *Study) reportFig11() string {
	divs := s.index().Diversify()
	urlGroups, byteGroups := analysis.HHIByGroup(divs)
	var b strings.Builder
	t := &report.Table{Header: []string{"Dominant", "n", "HHI URLs (med)", "HHI Bytes (med)"}}
	for _, cat := range []world.Category{world.CatGovtSOE, world.Cat3PLocal, world.Cat3PGlobal} {
		us, bs := urlGroups[cat], byteGroups[cat]
		if len(us) == 0 {
			continue
		}
		t.AddRow(cat.String(), fmt.Sprint(len(us)),
			fmt.Sprintf("%.2f", median(us)), fmt.Sprintf("%.2f", median(bs)))
	}
	b.WriteString(t.String())
	singles := analysis.SingleNetworkShare(divs)
	b.WriteString(report.PaperVsMeasured("Govt&SOE countries >50% bytes on one network", "63% (12/19)",
		report.Pct(singles[world.CatGovtSOE])) + "\n")
	b.WriteString(report.PaperVsMeasured("3P-Global countries >50% bytes on one network", "32% (8/25)",
		report.Pct(singles[world.Cat3PGlobal])) + "\n")
	return b.String()
}

func (s *Study) reportFig12() string {
	coefs, _, err := s.ExplanatoryModel()
	if err != nil {
		return "model unavailable: " + err.Error() + "\n"
	}
	t := &report.Table{Header: []string{"Coefficient", "Estimate", "95% CI", "p", "sig"}}
	for _, c := range coefs {
		sig := ""
		if c.Significant05 {
			sig = "*"
		}
		t.AddRow(c.Name, fmt.Sprintf("%+.3f", c.Estimate),
			fmt.Sprintf("[%+.3f, %+.3f]", c.CILow, c.CIHigh),
			fmt.Sprintf("%.3f", c.PValue), sig)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("paper: internet_users +0.845*, NRI -0.660*, GDP -0.239*; HDI/IDI/EFI n.s.\n")
	b.WriteString("expected shape: larger Internet populations host more abroad; higher\n")
	b.WriteString("network readiness and GDP host less abroad.\n")
	return b.String()
}

func (s *Study) reportTable7() string {
	_, vifs, err := s.ExplanatoryModel()
	if err != nil {
		return "model unavailable: " + err.Error() + "\n"
	}
	paper := map[string]string{
		"internet_users": "2.06", "HDI": "8.61", "IDI": "4.11",
		"NRI": "9.09", "GDP": "5.00", "econ_freedom": "3.71",
	}
	t := &report.Table{Header: []string{"Feature", "VIF paper", "VIF measured", "< 10?"}}
	for _, name := range []string{"internet_users", "HDI", "IDI", "NRI", "GDP", "econ_freedom"} {
		ok := "yes"
		if vifs[name] >= 10 {
			ok = "NO"
		}
		t.AddRow(name, paper[name], fmt.Sprintf("%.2f", vifs[name]), ok)
	}
	return t.String()
}

func (s *Study) reportTable8() string {
	rows := s.PerCountryStats()
	scale := s.ds.Scale
	t := &report.Table{Header: []string{"Country", "Region",
		"Landing (paper·scale)", "Internal (paper·scale)", "Hostnames (paper·scale)"}}
	for _, row := range rows {
		c := s.env.World.Country(row.Country)
		if c == nil {
			continue
		}
		t.AddRow(row.Country, row.Region,
			fmt.Sprintf("%d (%.0f)", row.LandingURLs, float64(c.Landing)*scale),
			fmt.Sprintf("%d (%.0f)", row.InternalURLs, float64(c.InternalURLs)*scale),
			fmt.Sprintf("%d (%.0f)", row.Hostnames, float64(c.Hostnames)*scale))
	}
	return fmt.Sprintf("scale %.2f of the paper's estate; parentheses show the paper's\nTable 8 value multiplied by the scale\n%s", scale, t.String())
}

func (s *Study) reportTable9() string {
	t := &report.Table{Header: []string{"Country", "Region", "EGDI", "HDI", "IUI", "% world pop", "VPN"}}
	for _, c := range s.env.World.Panel() {
		t.AddRow(c.Code, string(c.Region), fmt.Sprintf("%.3f", c.EGDI),
			fmt.Sprintf("%.3f", c.HDI), fmt.Sprintf("%.0f", c.IUI),
			fmt.Sprintf("%.3f", c.PctWorldPop), c.VPN)
	}
	var pop float64
	for _, c := range s.env.World.Panel() {
		pop += c.PctWorldPop
	}
	return t.String() + fmt.Sprintf("combined share of world Internet population: %.2f%% (paper: 82.70%%)\n", pop)
}

func (s *Study) reportFindings() string {
	sh := s.GlobalShares()
	sp := s.DomesticSplit()
	var b strings.Builder
	b.WriteString(report.PaperVsMeasured("3P delivers URLs", "62%", report.Pct(1-sh.URLs[GovtSOE])) + "\n")
	b.WriteString(report.PaperVsMeasured("3P delivers bytes", "53%", report.Pct(1-sh.Bytes[GovtSOE])) + "\n")
	b.WriteString(report.PaperVsMeasured("URLs served domestically", "87%", report.Pct(sp.GeoDomestic)) + "\n")
	b.WriteString(report.PaperVsMeasured("URLs registered domestically", "77%", report.Pct(sp.RegDomestic)) + "\n")
	b.WriteString(report.PaperVsMeasured("intl URLs registered abroad", "23%", report.Pct(1-sp.RegDomestic)) + "\n")
	provs := s.GlobalProviders()
	if len(provs) > 0 {
		b.WriteString(report.PaperVsMeasured("top provider country footprint", "49 (Cloudflare)",
			fmt.Sprintf("%d (%s)", provs[0].Countries, provs[0].Org)) + "\n")
	}
	return b.String()
}

func (s *Study) reportTable6() string {
	var b strings.Builder
	b.WriteString("two countries per region, contrasting digital development (Table 6):\n")
	t := &report.Table{Header: []string{"Region", "Country", "EGDI", "gov URLs", "topsite URLs"}}
	govN := map[string]int{}
	topN := map[string]int{}
	for i := range s.ds.Records {
		govN[s.ds.Records[i].Country]++
	}
	for i := range s.ds.Topsites {
		topN[s.ds.Topsites[i].Country]++
	}
	for _, code := range webgen.ComparisonCountries {
		c := s.env.World.Country(code)
		if c == nil {
			continue
		}
		t.AddRow(string(c.Region), code, fmt.Sprintf("%.3f", c.EGDI),
			fmt.Sprint(govN[code]), fmt.Sprint(topN[code]))
	}
	b.WriteString(t.String())
	return b.String()
}

func (s *Study) reportExtHTTPS() string {
	a := s.HTTPSAdoption()
	var b strings.Builder
	b.WriteString(report.PaperVsMeasured("government hostnames lacking valid HTTPS",
		">70% (Singanamalla et al.)", report.Pct(1-a.GlobalValid)) + "\n")
	t := &report.Table{Header: []string{"Region", "valid HTTPS", ""}}
	for _, reg := range regionOrder {
		v, ok := a.ByRegion[string(reg)]
		if !ok {
			continue
		}
		t.AddRow(string(reg), report.Pct(v), report.Bar(v, 20))
	}
	b.WriteString(t.String())
	b.WriteString("highest-validity countries: " + strings.Join(analysis.HTTPSValidity(s.ds).TopValidityCountries(8), " ") + "\n")
	b.WriteString("validity tracks e-government development by construction; the paper's\n")
	b.WriteString("related work (Singanamalla et al.) reports the >70% headline globally.\n")
	return b.String()
}

func (s *Study) reportExtWeight() string {
	res := analysis.Affordability(s.ds, s.env.World)
	var b strings.Builder
	b.WriteString(report.PaperVsMeasured("corr(HDI, median landing-page size)",
		"negative (Habib et al.)", fmt.Sprintf("Pearson %+.2f, Spearman %+.2f", res.PearsonHDI, res.SpearmanHDI)) + "\n")
	heavy := append([]analysis.PageWeight(nil), res.PerCountry...)
	sort.Slice(heavy, func(i, j int) bool { return heavy[i].MedianBytes > heavy[j].MedianBytes })
	t := &report.Table{Header: []string{"Country", "HDI", "median landing KB"}}
	for i, p := range heavy {
		if i >= 8 {
			break
		}
		t.AddRow(p.Country, fmt.Sprintf("%.3f", p.HDI), fmt.Sprintf("%.0f", p.MedianBytes/1024))
	}
	b.WriteString("heaviest landing pages:\n" + t.String())
	return b.String()
}

// CountryReport renders one country's measured hosting picture: its
// category signature, domestic splits, the foreign countries it leans
// on, the networks that dominate its bytes, and HTTPS validity.
func (s *Study) CountryReport(code string) string {
	c := s.env.World.Country(code)
	if c == nil {
		return fmt.Sprintf("unknown country %q\n", code)
	}
	shares, ok := s.index().CountryShares()[code]
	if !ok {
		return fmt.Sprintf("no records for %s in this run\n", code)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s, %s) — EGDI %.3f, HDI %.3f, VPN via %s\n\n",
		c.Name, code, c.Region.Name(), c.EGDI, c.HDI, c.VPN)
	b.WriteString("hosting signature (URLs):  " + categoryRow(shares.URLs) + "\n")
	b.WriteString("hosting signature (bytes): " + categoryRow(shares.Bytes) + "\n")

	var regDom, geoDom, geoN, regN, httpsValid, hosts float64
	seenHost := map[string]bool{}
	for i := range s.ds.Records {
		r := &s.ds.Records[i]
		if r.Country != code {
			continue
		}
		if r.RegCountry != "" {
			regN++
			if r.RegDomestic() {
				regDom++
			}
		}
		if r.ServeCountry != "" {
			geoN++
			if r.Domestic() {
				geoDom++
			}
		}
		if !seenHost[r.Host] {
			seenHost[r.Host] = true
			hosts++
			if r.HTTPSValid {
				httpsValid++
			}
		}
	}
	if regN > 0 && geoN > 0 {
		fmt.Fprintf(&b, "domestic: %s of URLs registered, %s served at home\n",
			report.Pct(regDom/regN), report.Pct(geoDom/geoN))
	}
	if hosts > 0 {
		fmt.Fprintf(&b, "valid HTTPS on %s of hostnames\n", report.Pct(httpsValid/hosts))
	}

	flows := s.index().CrossBorderFlows(analysis.FlowLocation)
	var mine []analysis.Flow
	for _, f := range flows {
		if f.Src == code {
			mine = append(mine, f)
		}
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].URLs > mine[j].URLs })
	if len(mine) > 0 {
		b.WriteString("foreign serving destinations:\n")
		for i, f := range mine {
			if i >= 5 {
				break
			}
			fmt.Fprintf(&b, "  -> %s %s (%d URLs)\n", f.Dst, report.Pct(f.Share), f.URLs)
		}
	} else {
		b.WriteString("no foreign-served URLs observed\n")
	}

	for _, d := range s.index().Diversify() {
		if d.Country != code {
			continue
		}
		fmt.Fprintf(&b, "network concentration: HHI %.2f (URLs) / %.2f (bytes); top network holds %s of bytes; dominant source %s\n",
			d.HHIURLs, d.HHIBytes, report.Pct(d.TopNetShare), d.DominantCat)
	}
	return b.String()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// failKindOrder fixes the column order of the coverage report so equal
// datasets render equal bytes. It derives from fetch.AllKinds — not a
// hand-written list — so a taxonomy addition grows the table columns
// automatically; FailNone is success, not a failure column.
var failKindOrder = func() []fetch.FailKind {
	all := fetch.AllKinds()
	kinds := make([]fetch.FailKind, 0, len(all))
	for _, k := range all {
		if k != fetch.FailNone {
			kinds = append(kinds, k)
		}
	}
	return kinds
}()

// reportCoverage renders the collection-coverage and failure-taxonomy
// accounting: how many landing/internal fetches each country attempted,
// how many failed and why, retry effort, and which countries degraded
// to partial or empty data. Under `-fault-profile off` every failure
// column is zero; under a chaos profile this is the graceful-degradation
// ledger that replaces an aborted run.
func (s *Study) reportCoverage() string {
	codes := make([]string, 0, len(s.ds.PerCountry))
	for code := range s.ds.PerCountry {
		codes = append(codes, code)
	}
	sort.Strings(codes)

	header := []string{"Country", "Attempted", "OK", "Failed"}
	for _, k := range failKindOrder {
		header = append(header, string(k))
	}
	header = append(header, "Retries", "VPN tries")
	t := &report.Table{Header: header}
	for _, code := range codes {
		st := s.ds.PerCountry[code]
		row := []string{code,
			fmt.Sprint(st.Attempted),
			fmt.Sprint(st.Attempted - st.FailedURLs),
			fmt.Sprint(st.FailedURLs)}
		for _, k := range failKindOrder {
			row = append(row, fmt.Sprint(st.Failures[string(k)]))
		}
		row = append(row, fmt.Sprint(st.Retries), fmt.Sprint(st.VantageAttempts))
		t.AddRow(row...)
	}

	var b strings.Builder
	b.WriteString(t.String())
	ok := s.ds.TotalAttempted - s.ds.TotalFailedURLs
	frac := 1.0
	if s.ds.TotalAttempted > 0 {
		frac = float64(ok) / float64(s.ds.TotalAttempted)
	}
	fmt.Fprintf(&b, "fetch coverage: %d/%d attempts succeeded (%s); %d retries spent\n",
		ok, s.ds.TotalAttempted, report.Pct(frac), s.ds.TotalRetries)
	if len(s.ds.FailuresByKind) > 0 {
		kinds := make([]string, 0, len(s.ds.FailuresByKind))
		for k := range s.ds.FailuresByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		b.WriteString("failure taxonomy:")
		for _, k := range kinds {
			fmt.Fprintf(&b, " %s=%d", k, s.ds.FailuresByKind[k])
		}
		b.WriteString("\n")
	}
	for _, code := range s.ds.FailedCountries {
		st := s.ds.PerCountry[code]
		fmt.Fprintf(&b, "FAILED country %s: %s (partial dataset)\n", code, st.FailureReason)
	}
	if len(s.ds.FailedCountries) == 0 {
		b.WriteString("no wholly failed countries\n")
	}
	return b.String()
}

func (s *Study) reportMetrics() string {
	snap, ok := s.Metrics()
	if !ok {
		return "no metrics registry: the study was loaded from a saved dataset\n"
	}
	// The preamble travels with the ledger so regenerated documents
	// (govreport) keep the reading instructions next to the numbers.
	return "The registry snapshot is a two-part ledger. The first part is\n" +
		"seed-deterministic and golden-comparable (byte-identical at any\n" +
		"concurrency shape for equal seeds, enforced by the chaos suite); the\n" +
		"second is wall-clock/scheduling-shape observation, excluded from\n" +
		"golden comparisons. `-metrics json` emits the same snapshot as JSON.\n\n" +
		snap.Text()
}
