// Package world holds the static facts of the study: the 61-country
// panel of Table 9 (with the dataset statistics of Table 8 and the
// covariates of Appendix E), World Bank regions, geography, and the
// per-country hosting-policy profiles that act as ground truth for the
// synthetic Internet the measurement pipeline rediscovers.
package world

import (
	"fmt"
	"math"
	"sort"
)

// Model is the immutable world: countries, regions and geometry.
type Model struct {
	byCode  map[string]*Country
	ordered []*Country // stable order: the countries table order
}

// New builds the world model.
func New() *Model {
	m := &Model{byCode: make(map[string]*Country, len(countries))}
	for i := range countries {
		c := &countries[i]
		m.byCode[c.Code] = c
		m.ordered = append(m.ordered, c)
	}
	return m
}

// Country returns the country with the given ISO code, or nil.
func (m *Model) Country(code string) *Country { return m.byCode[code] }

// MustCountry is Country but panics on unknown codes; for use in
// generators where a missing country is a programming error.
func (m *Model) MustCountry(code string) *Country {
	c := m.byCode[code]
	if c == nil {
		panic(fmt.Sprintf("world: unknown country %q", code))
	}
	return c
}

// All returns every country (panel and host-only) in stable order.
func (m *Model) All() []*Country { return m.ordered }

// Panel returns the 61 study countries in stable order.
func (m *Model) Panel() []*Country {
	var out []*Country
	for _, c := range m.ordered {
		if c.Study() {
			out = append(out, c)
		}
	}
	return out
}

// InRegion returns the panel countries of region r.
func (m *Model) InRegion(r Region) []*Country {
	var out []*Country
	for _, c := range m.Panel() {
		if c.Region == r {
			out = append(out, c)
		}
	}
	return out
}

// SortedCodes returns all country codes (panel and host-only) sorted
// lexicographically; useful for deterministic iteration over maps.
func (m *Model) SortedCodes() []string {
	out := make([]string, 0, len(m.byCode))
	for code := range m.byCode {
		out = append(out, code)
	}
	sort.Strings(out)
	return out
}

// EarthRadiusKM is the mean Earth radius.
const EarthRadiusKM = 6371.0

// DistanceKM returns the great-circle distance between two
// (lat, lon) points in kilometres (haversine formula).
func DistanceKM(lat1, lon1, lat2, lon2 float64) float64 {
	const deg = math.Pi / 180
	dLat := (lat2 - lat1) * deg
	dLon := (lon2 - lon1) * deg
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*deg)*math.Cos(lat2*deg)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKM * math.Asin(math.Min(1, math.Sqrt(a)))
}

// Distance returns the great-circle distance between two countries'
// capitals in kilometres.
func Distance(a, b *Country) float64 {
	return DistanceKM(a.Lat, a.Lon, b.Lat, b.Lon)
}

// KMPerMSRTT converts distance to round-trip latency: light in fibre
// covers ~200 km per millisecond one way, i.e. ~100 km per millisecond
// of RTT; a path-inflation factor accounts for non-great-circle fibre
// routes (iGDB-style, §3.5).
const (
	KMPerMSRTT    = 100.0
	PathInflation = 1.3
)

// RTTForKM converts a geographic distance into an expected round-trip
// time in milliseconds, including path inflation.
func RTTForKM(km float64) float64 {
	return km * PathInflation / KMPerMSRTT
}

// RoadThresholdMS returns the per-country latency threshold used in
// §3.5 Step #3: the intercity road distance between the two furthest
// cities converted into a round-trip latency. Latency to a server
// below this threshold is consistent with the server being anywhere
// inside the country.
func (c *Country) RoadThresholdMS() float64 {
	return RTTForKM(c.MaxRoadKM)
}

// SameContinentRegion reports whether two countries belong to the same
// continental grouping for the purposes of the 3P Regional category:
// networks "registered outside the country they serve, but that do not
// span beyond one continent" (§5.1). World Bank regions serve as the
// continental grouping, with NA and LAC both mapping to the Americas.
func SameContinentRegion(a, b *Country) bool {
	return continent(a.Region) == continent(b.Region)
}

// Continent returns the continental grouping of a region, used to
// decide whether a provider's footprint spans multiple continents.
func (r Region) Continent() string { return continent(r) }

func continent(r Region) string {
	switch r {
	case NA, LAC:
		return "americas"
	case ECA:
		return "eurasia"
	case MENA:
		return "mena"
	case SSA:
		return "africa"
	case SA:
		return "southasia"
	case EAP:
		return "asiapacific"
	}
	return string(r)
}
