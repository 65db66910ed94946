package analysis

import (
	"sort"

	"repro/internal/world"
)

// ProviderFootprint is one bar of Fig. 10.
type ProviderFootprint struct {
	ASN       int
	Org       string
	Countries int // number of governments relying on the network
}

// Diversification is one country's Fig. 11 data point.
type Diversification struct {
	Country     string
	HHIURLs     float64 // concentration of URLs across serving networks
	HHIBytes    float64
	DominantCat world.Category // predominant byte source (grouping key)
	TopNetShare float64        // byte share of the single largest network
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
