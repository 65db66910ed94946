package analysis

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/world"
)

// ProviderFootprint is one bar of Fig. 10.
type ProviderFootprint struct {
	ASN       int
	Org       string
	Countries int // number of governments relying on the network
}

// GlobalProviderFootprints computes Fig. 10: for every network
// classified 3P Global, the number of countries whose governments it
// serves, ranked descending.
func GlobalProviderFootprints(ds *dataset.Dataset) []ProviderFootprint {
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

// Diversification is one country's Fig. 11 data point.
type Diversification struct {
	Country     string
	HHIURLs     float64 // concentration of URLs across serving networks
	HHIBytes    float64
	DominantCat world.Category // predominant byte source (grouping key)
	TopNetShare float64        // byte share of the single largest network
}

// Diversify computes per-country network-concentration indexes and
// groups countries by their dominant byte category (§7.2).
func Diversify(ds *dataset.Dataset) []Diversification {
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

// SingleNetworkShare returns, for each dominant category, the fraction
// of its countries that serve over half their bytes from one network
// (the §7.2 key finding: 63 % of Govt&SOE countries vs 32 % of 3P
// Global countries).
func SingleNetworkShare(divs []Diversification) map[world.Category]float64 {
	total := map[world.Category]int{}
	single := map[world.Category]int{}
	for _, d := range divs {
		total[d.DominantCat]++
		if d.TopNetShare > 0.5 {
			single[d.DominantCat]++
		}
	}
	out := map[world.Category]float64{}
	for cat, n := range total {
		out[cat] = float64(single[cat]) / float64(n)
	}
	return out
}

// HHIByGroup collects the Fig. 11 distributions: HHI values grouped by
// dominant category, separately for URL and byte concentration.
func HHIByGroup(divs []Diversification) (urls, bytes map[world.Category][]float64) {
	urls = map[world.Category][]float64{}
	bytes = map[world.Category][]float64{}
	for _, d := range divs {
		urls[d.DominantCat] = append(urls[d.DominantCat], d.HHIURLs)
		bytes[d.DominantCat] = append(bytes[d.DominantCat], d.HHIBytes)
	}
	return urls, bytes
}

// mapValues returns m's values in ascending order. Sorting matters:
// the slices feed float accumulations (HHI sums), and summing in Go's
// randomized map order would make the low bits of the result vary from
// run to run.
func mapValues(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}
