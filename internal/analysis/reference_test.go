package analysis

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/world"
)

// The record-scanning implementations the Index replaced, kept as the
// oracle: each rescans ds.Records for one figure. TestIndexEquivalence
// and TestBuildIndexWorkersMatchesScans hold every Index query, at
// every build width, to exactly the answer its reference gives —
// floats included.

// globalSharesReference computes Fig. 2: the global fraction of URLs and bytes
// served by each provider category.
func globalSharesReference(ds *dataset.Dataset) Shares {
	var s Shares
	for i := range ds.Records {
		s.add(&ds.Records[i])
	}
	s.normalize()
	return s
}

// regionalSharesReference computes Fig. 4: per-region category shares.
func regionalSharesReference(ds *dataset.Dataset) map[world.Region]Shares {
	out := map[world.Region]Shares{}
	for i := range ds.Records {
		r := &ds.Records[i]
		s := out[r.Region]
		s.add(r)
		out[r.Region] = s
	}
	for k, s := range out {
		s.normalize()
		out[k] = s
	}
	return out
}

// countrySharesReference computes each country's hosting signature — the
// Fig. 5 input vectors.
func countrySharesReference(ds *dataset.Dataset) map[string]Shares {
	out := map[string]Shares{}
	for i := range ds.Records {
		r := &ds.Records[i]
		s := out[r.Country]
		s.add(r)
		out[r.Country] = s
	}
	for k, s := range out {
		s.normalize()
		out[k] = s
	}
	return out
}

// majorityMapReference computes Fig. 1: whether each country's bytes are
// majority-served by third parties or by government/SOE networks.
func majorityMapReference(ds *dataset.Dataset) []MajorityEntry {
	shares := countrySharesReference(ds)
	codes := make([]string, 0, len(shares))
	for c := range shares {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	out := make([]MajorityEntry, 0, len(codes))
	for _, c := range codes {
		gov := shares[c].Bytes[world.CatGovtSOE]
		out = append(out, MajorityEntry{
			Country:  c,
			ThirdPty: gov < 0.5,
			GovShare: gov,
		})
	}
	return out
}

// domesticIntlReference computes Fig. 6 over the whole dataset.
func domesticIntlReference(ds *dataset.Dataset) SplitShares {
	return splitOf(recordsOf(ds))
}

// regionalDomesticIntlReference computes Fig. 8 per region.
func regionalDomesticIntlReference(ds *dataset.Dataset) map[world.Region]SplitShares {
	byRegion := map[world.Region][]*dataset.URLRecord{}
	for i := range ds.Records {
		r := &ds.Records[i]
		byRegion[r.Region] = append(byRegion[r.Region], r)
	}
	out := map[world.Region]SplitShares{}
	for reg, recs := range byRegion {
		out[reg] = splitOf(recs)
	}
	return out
}

func recordsOf(ds *dataset.Dataset) []*dataset.URLRecord {
	out := make([]*dataset.URLRecord, len(ds.Records))
	for i := range ds.Records {
		out[i] = &ds.Records[i]
	}
	return out
}

func splitOf(recs []*dataset.URLRecord) SplitShares {
	var s SplitShares
	var regDom, geoDom int
	for _, r := range recs {
		if r.RegCountry != "" {
			s.NReg++
			if r.RegDomestic() {
				regDom++
			}
		}
		if r.ServeCountry != "" {
			s.NGeo++
			if r.Domestic() {
				geoDom++
			}
		}
	}
	if s.NReg > 0 {
		s.RegDomestic = float64(regDom) / float64(s.NReg)
	}
	if s.NGeo > 0 {
		s.GeoDomestic = float64(geoDom) / float64(s.NGeo)
	}
	return s
}

// crossBorderFlowsReference computes the Fig. 9 flow list: for every country,
// the foreign countries its government URLs depend on, either by
// organization registration or by server location.
func crossBorderFlowsReference(ds *dataset.Dataset, kind FlowKind) []Flow {
	perSrc := map[string]int{}
	edge := map[[2]string]int{}
	for i := range ds.Records {
		r := &ds.Records[i]
		dst := r.RegCountry
		if kind == FlowLocation {
			dst = r.ServeCountry
		}
		if dst == "" {
			continue
		}
		perSrc[r.Country]++
		if dst != r.Country {
			edge[[2]string{r.Country, dst}]++
		}
	}
	var out []Flow
	for k, n := range edge {
		out = append(out, Flow{
			Src: k[0], Dst: k[1], URLs: n,
			Share: float64(n) / float64(perSrc[k[0]]),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		if out[i].URLs != out[j].URLs {
			return out[i].URLs > out[j].URLs
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// inRegionShareReference computes Table 5: per source region, the percentage of
// cross-border (location) dependencies whose destination stays in the
// same region.
func inRegionShareReference(ds *dataset.Dataset, w *world.Model) map[world.Region]float64 {
	total := map[world.Region]int{}
	inRegion := map[world.Region]int{}
	for i := range ds.Records {
		r := &ds.Records[i]
		if r.ServeCountry == "" || r.ServeCountry == r.Country {
			continue
		}
		src := w.Country(r.Country)
		dst := w.Country(r.ServeCountry)
		if src == nil || dst == nil {
			continue
		}
		total[src.Region]++
		if src.Region == dst.Region {
			inRegion[src.Region]++
		}
	}
	out := map[world.Region]float64{}
	for reg, n := range total {
		out[reg] = float64(inRegion[reg]) / float64(n)
	}
	return out
}

// regionalAffinityReference returns, per region, the share of in-region
// cross-border dependencies hosted by each destination country (§6.3:
// South Africa hosts 100 % of SSA's, Brazil 85 % of LAC's, Japan 60 %
// of EAP's…).
func regionalAffinityReference(ds *dataset.Dataset, w *world.Model) map[world.Region]map[string]float64 {
	counts := map[world.Region]map[string]int{}
	totals := map[world.Region]int{}
	for i := range ds.Records {
		r := &ds.Records[i]
		if r.ServeCountry == "" || r.ServeCountry == r.Country {
			continue
		}
		src := w.Country(r.Country)
		dst := w.Country(r.ServeCountry)
		if src == nil || dst == nil || src.Region != dst.Region {
			continue
		}
		if counts[src.Region] == nil {
			counts[src.Region] = map[string]int{}
		}
		counts[src.Region][r.ServeCountry]++
		totals[src.Region]++
	}
	out := map[world.Region]map[string]float64{}
	for reg, m := range counts {
		out[reg] = map[string]float64{}
		for dst, n := range m {
			out[reg][dst] = float64(n) / float64(totals[reg])
		}
	}
	return out
}

// gdprComplianceReference reports the fraction of EU-member government URLs
// served from inside the EU (§6.3 finds 98.3 %).
func gdprComplianceReference(ds *dataset.Dataset, w *world.Model) (compliant, total int) {
	for i := range ds.Records {
		r := &ds.Records[i]
		src := w.Country(r.Country)
		if src == nil || !src.EU || r.ServeCountry == "" {
			continue
		}
		total++
		dst := w.Country(r.ServeCountry)
		if dst != nil && dst.EU {
			compliant++
		}
	}
	return compliant, total
}

// regionFlowMatrixReference aggregates the Fig. 9 circular Sankey into a
// region-to-region matrix: entry [src][dst] is the number of
// cross-border URLs flowing from governments in src to infrastructure
// in dst (registration or location, per kind).
func regionFlowMatrixReference(ds *dataset.Dataset, w *world.Model, kind FlowKind) map[world.Region]map[world.Region]int {
	out := map[world.Region]map[world.Region]int{}
	for i := range ds.Records {
		r := &ds.Records[i]
		dstCode := r.RegCountry
		if kind == FlowLocation {
			dstCode = r.ServeCountry
		}
		if dstCode == "" || dstCode == r.Country {
			continue
		}
		dst := w.Country(dstCode)
		if dst == nil {
			continue
		}
		if out[r.Region] == nil {
			out[r.Region] = map[world.Region]int{}
		}
		out[r.Region][dst.Region]++
	}
	return out
}

// abroadInNAWEReference returns the share of foreign-served government URLs
// whose servers sit in North America or Western Europe (§6.3: 57 %).
func abroadInNAWEReference(ds *dataset.Dataset) float64 {
	total, nawe := 0, 0
	for i := range ds.Records {
		r := &ds.Records[i]
		if r.ServeCountry == "" || r.ServeCountry == r.Country {
			continue
		}
		total++
		if westernNAWE[r.ServeCountry] {
			nawe++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(nawe) / float64(total)
}

// globalProviderFootprintsReference computes Fig. 10: for every network
// classified 3P Global, the number of countries whose governments it
// serves, ranked descending.
func globalProviderFootprintsReference(ds *dataset.Dataset) []ProviderFootprint {
	countries := map[int]map[string]bool{}
	orgs := map[int]string{}
	for i := range ds.Records {
		r := &ds.Records[i]
		if r.Category != world.Cat3PGlobal {
			continue
		}
		if countries[r.ASN] == nil {
			countries[r.ASN] = map[string]bool{}
		}
		countries[r.ASN][r.Country] = true
		orgs[r.ASN] = r.Org
	}
	out := make([]ProviderFootprint, 0, len(countries))
	for asn, set := range countries {
		out = append(out, ProviderFootprint{ASN: asn, Org: orgs[asn], Countries: len(set)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Countries != out[j].Countries {
			return out[i].Countries > out[j].Countries
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// diversifyReference computes per-country network-concentration indexes and
// groups countries by their dominant byte category (§7.2).
func diversifyReference(ds *dataset.Dataset) []Diversification {
	type acc struct {
		urlsByASN  map[int]float64
		bytesByASN map[int]float64
		shares     Shares
	}
	perCountry := map[string]*acc{}
	for i := range ds.Records {
		r := &ds.Records[i]
		a := perCountry[r.Country]
		if a == nil {
			a = &acc{urlsByASN: map[int]float64{}, bytesByASN: map[int]float64{}}
			perCountry[r.Country] = a
		}
		a.urlsByASN[r.ASN]++
		a.bytesByASN[r.ASN] += float64(r.Bytes)
		a.shares.add(r)
	}
	codes := make([]string, 0, len(perCountry))
	for c := range perCountry {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	out := make([]Diversification, 0, len(codes))
	for _, c := range codes {
		a := perCountry[c]
		a.shares.normalize()
		urls := mapValues(a.urlsByASN)
		bytes := mapValues(a.bytesByASN)
		var topShare float64
		var byteTotal float64
		for _, b := range bytes {
			byteTotal += b
		}
		for _, b := range bytes {
			if s := b / byteTotal; s > topShare {
				topShare = s
			}
		}
		out = append(out, Diversification{
			Country:     c,
			HHIURLs:     stats.HHI(urls),
			HHIBytes:    stats.HHI(bytes),
			DominantCat: a.shares.Bytes.Dominant(),
			TopNetShare: topShare,
		})
	}
	return out
}

// compareTopsitesReference computes the comparison over the countries that have
// top-site records, restricting the government side to the same
// subset so both halves describe the same population.
func compareTopsitesReference(ds *dataset.Dataset) Comparison {
	subset := map[string]bool{}
	for i := range ds.Topsites {
		subset[ds.Topsites[i].Country] = true
	}

	var cmp Comparison
	var govRecs, topRecs []*dataset.URLRecord
	for i := range ds.Records {
		r := &ds.Records[i]
		if subset[r.Country] {
			cmp.Gov.add(r)
			govRecs = append(govRecs, r)
		}
	}
	for i := range ds.Topsites {
		r := &ds.Topsites[i]
		cmp.Topsites.add(r)
		topRecs = append(topRecs, r)
	}
	cmp.Gov.normalize()
	cmp.Topsites.normalize()
	cmp.GovSplit = splitOf(govRecs)
	cmp.TopSplit = splitOf(topRecs)
	return cmp
}
