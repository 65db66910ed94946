package analysis

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/world"
)

// Index is every per-record aggregate the figures and tables consume,
// built in one forward scan of the dataset. The package-level
// functions each rescan ds.Records; a report renders a dozen figures
// over one study, so the scans dominated figure time. The index folds
// all of them into a single pass and answers each query from the
// aggregates in O(countries) or O(edges).
//
// Equivalence is exact, not approximate: every float accumulation in
// the index (category byte shares, per-ASN byte totals) is a sum of
// integer-valued terms — URL counts increment by one, byte totals add
// int64 payload sizes — far below 2⁵³, so float addition is exact and
// order-independent. The scan can therefore run sequentially or
// partitioned across workers (BuildIndexWorkers) and every aggregate,
// and every figure rendered from it, stays byte-identical. The
// integer aggregates (split counts, flow edges, provider footprints)
// are order-independent sums outright. IndexEquivalence tests pin
// each query to its package-level counterpart, and the worker-sweep
// test pins the parallel build to the sequential one.
type Index struct {
	global    Shares
	byRegion  map[world.Region]Shares
	byCountry map[string]Shares

	globalSplit splitCounts
	regionSplit map[world.Region]splitCounts

	// regPairs and locPairs count records per (source country,
	// destination country) for records with a known destination —
	// including domestic pairs, which the flow queries need for
	// per-source totals and GDPR accounting.
	regPairs map[[2]string]int
	locPairs map[[2]string]int

	// countryRegion is each source country's region as recorded on its
	// rows (records of one country all carry that country's region).
	countryRegion map[string]world.Region

	providerCountries map[int]map[string]bool
	providerOrgs      map[int]string

	diversify map[string]*divAcc

	// Figs. 3/7: government shares restricted to the topsite-country
	// subset, plus the topsite records themselves.
	subsetGov   Shares
	topsites    Shares
	subsetSplit splitCounts
	topSplit    splitCounts
}

// splitCounts is the integer half of a SplitShares: domestic and known
// counts for the registration and location rows.
type splitCounts struct {
	nReg, regDom int
	nGeo, geoDom int
}

func (c *splitCounts) add(r *dataset.URLRecord) {
	if r.RegCountry != "" {
		c.nReg++
		if r.RegDomestic() {
			c.regDom++
		}
	}
	if r.ServeCountry != "" {
		c.nGeo++
		if r.Domestic() {
			c.geoDom++
		}
	}
}

func (c *splitCounts) merge(o splitCounts) {
	c.nReg += o.nReg
	c.regDom += o.regDom
	c.nGeo += o.nGeo
	c.geoDom += o.geoDom
}

func (c splitCounts) shares() SplitShares {
	s := SplitShares{NReg: c.nReg, NGeo: c.nGeo}
	if c.nReg > 0 {
		s.RegDomestic = float64(c.regDom) / float64(c.nReg)
	}
	if c.nGeo > 0 {
		s.GeoDomestic = float64(c.geoDom) / float64(c.nGeo)
	}
	return s
}

// divAcc is one country's Fig. 11 accumulator.
type divAcc struct {
	urlsByASN  map[int]float64
	bytesByASN map[int]float64
	shares     Shares
}

// BuildIndexWorkers aggregates the dataset in a single scan of
// ds.Topsites (to learn the comparison subset) and one scan of
// ds.Records, partitioned across workers goroutines on sched.Workers.
// Each worker
// folds a contiguous chunk of ds.Records — cut only at country
// boundaries, so one country's rows stay together when the dataset is
// grouped (the deterministic merge sink emits it that way) — into a
// private partial Index, and the partials merge left-to-right in
// record order. The result is byte-identical to the sequential scan
// at any worker count: every float accumulator is a sum of
// integer-valued terms, so the merge's reassociation cannot change a
// bit (see the type comment), and the one last-wins aggregate
// (provider org names) merges in chunk order, which is scan order.
// workers <= 1 scans inline.
func BuildIndexWorkers(ds *dataset.Dataset, workers int) *Index {
	ix := newIndex()
	subset := map[string]bool{}
	for i := range ds.Topsites {
		r := &ds.Topsites[i]
		subset[r.Country] = true
		ix.topsites.add(r)
		ix.topSplit.add(r)
	}

	bounds := chunkBounds(ds.Records, workers)
	if len(bounds) <= 1 {
		ix.scan(ds.Records, subset)
		return ix
	}
	parts := make([]*Index, len(bounds))
	wait := sched.Workers(len(bounds), func(w int) {
		p := newIndex()
		p.scan(ds.Records[bounds[w][0]:bounds[w][1]], subset)
		parts[w] = p
	})
	wait()
	for _, p := range parts {
		ix.mergeFrom(p)
	}
	return ix
}

func newIndex() *Index {
	return &Index{
		byRegion:          map[world.Region]Shares{},
		byCountry:         map[string]Shares{},
		regionSplit:       map[world.Region]splitCounts{},
		regPairs:          map[[2]string]int{},
		locPairs:          map[[2]string]int{},
		countryRegion:     map[string]world.Region{},
		providerCountries: map[int]map[string]bool{},
		providerOrgs:      map[int]string{},
		diversify:         map[string]*divAcc{},
	}
}

// chunkBounds cuts recs into at most n contiguous [lo, hi) chunks,
// advancing each cut to the next country boundary so a grouped
// country's rows never straddle two workers. Fewer chunks come back
// when the groups are coarse relative to n.
func chunkBounds(recs []dataset.URLRecord, n int) [][2]int {
	if n < 1 {
		n = 1
	}
	var bounds [][2]int
	total := len(recs)
	lo := 0
	for w := 1; w <= n && lo < total; w++ {
		hi := w * total / n
		if w == n {
			hi = total
		}
		if hi <= lo {
			continue
		}
		for hi < total && recs[hi].Country == recs[hi-1].Country {
			hi++
		}
		bounds = append(bounds, [2]int{lo, hi})
		lo = hi
	}
	return bounds
}

// scan folds a contiguous run of records into the index. subset is
// the topsite-country set, shared read-only across workers.
func (ix *Index) scan(recs []dataset.URLRecord, subset map[string]bool) {
	for i := range recs {
		r := &recs[i]

		ix.global.add(r)
		ix.globalSplit.add(r)

		rs := ix.byRegion[r.Region]
		rs.add(r)
		ix.byRegion[r.Region] = rs
		rsp := ix.regionSplit[r.Region]
		rsp.add(r)
		ix.regionSplit[r.Region] = rsp

		cs := ix.byCountry[r.Country]
		cs.add(r)
		ix.byCountry[r.Country] = cs
		ix.countryRegion[r.Country] = r.Region

		if r.RegCountry != "" {
			ix.regPairs[[2]string{r.Country, r.RegCountry}]++
		}
		if r.ServeCountry != "" {
			ix.locPairs[[2]string{r.Country, r.ServeCountry}]++
		}

		if r.Category == world.Cat3PGlobal {
			if ix.providerCountries[r.ASN] == nil {
				ix.providerCountries[r.ASN] = map[string]bool{}
			}
			ix.providerCountries[r.ASN][r.Country] = true
			ix.providerOrgs[r.ASN] = r.Org
		}

		a := ix.diversify[r.Country]
		if a == nil {
			a = &divAcc{urlsByASN: map[int]float64{}, bytesByASN: map[int]float64{}}
			ix.diversify[r.Country] = a
		}
		a.urlsByASN[r.ASN]++
		a.bytesByASN[r.ASN] += float64(r.Bytes)
		a.shares.add(r)

		if subset[r.Country] {
			ix.subsetGov.add(r)
			ix.subsetSplit.add(r)
		}
	}
}

// mergeFrom folds a partial index built from a later chunk of the
// record scan into ix. Every aggregate is an order-independent sum
// (the float ones are integer-valued, so addition is exact), except
// providerOrgs, which is last-wins: callers must merge partials in
// record order. The topsite aggregates are never populated in
// partials — the topsites scan runs once up front.
func (ix *Index) mergeFrom(p *Index) {
	ix.global.merge(p.global)
	ix.globalSplit.merge(p.globalSplit)
	for reg, s := range p.byRegion {
		acc := ix.byRegion[reg]
		acc.merge(s)
		ix.byRegion[reg] = acc
	}
	for reg, c := range p.regionSplit {
		acc := ix.regionSplit[reg]
		acc.merge(c)
		ix.regionSplit[reg] = acc
	}
	for c, s := range p.byCountry {
		acc := ix.byCountry[c]
		acc.merge(s)
		ix.byCountry[c] = acc
	}
	for c, reg := range p.countryRegion {
		ix.countryRegion[c] = reg
	}
	for k, n := range p.regPairs {
		ix.regPairs[k] += n
	}
	for k, n := range p.locPairs {
		ix.locPairs[k] += n
	}
	for asn, set := range p.providerCountries {
		dst := ix.providerCountries[asn]
		if dst == nil {
			ix.providerCountries[asn] = set
			continue
		}
		for c := range set {
			dst[c] = true
		}
	}
	for asn, org := range p.providerOrgs {
		ix.providerOrgs[asn] = org
	}
	for c, pa := range p.diversify {
		a := ix.diversify[c]
		if a == nil {
			ix.diversify[c] = pa
			continue
		}
		for asn, v := range pa.urlsByASN {
			a.urlsByASN[asn] += v
		}
		for asn, v := range pa.bytesByASN {
			a.bytesByASN[asn] += v
		}
		a.shares.merge(pa.shares)
	}
	ix.subsetGov.merge(p.subsetGov)
	ix.subsetSplit.merge(p.subsetSplit)
}

// pairs selects the flow-edge map for a kind.
func (ix *Index) pairs(kind FlowKind) map[[2]string]int {
	if kind == FlowLocation {
		return ix.locPairs
	}
	return ix.regPairs
}

// GlobalShares answers Fig. 2.
func (ix *Index) GlobalShares() Shares {
	s := ix.global
	s.normalize()
	return s
}

// RegionalShares answers Fig. 4.
func (ix *Index) RegionalShares() map[world.Region]Shares {
	out := make(map[world.Region]Shares, len(ix.byRegion))
	for reg, s := range ix.byRegion {
		s.normalize()
		out[reg] = s
	}
	return out
}

// CountryShares answers the Fig. 5 input vectors.
func (ix *Index) CountryShares() map[string]Shares {
	out := make(map[string]Shares, len(ix.byCountry))
	for c, s := range ix.byCountry {
		s.normalize()
		out[c] = s
	}
	return out
}

// MajorityMap answers Fig. 1.
func (ix *Index) MajorityMap() []MajorityEntry {
	codes := make([]string, 0, len(ix.byCountry))
	for c := range ix.byCountry {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	out := make([]MajorityEntry, 0, len(codes))
	for _, c := range codes {
		s := ix.byCountry[c]
		s.normalize()
		gov := s.Bytes[world.CatGovtSOE]
		out = append(out, MajorityEntry{Country: c, ThirdPty: gov < 0.5, GovShare: gov})
	}
	return out
}

// DomesticIntl answers Fig. 6.
func (ix *Index) DomesticIntl() SplitShares {
	return ix.globalSplit.shares()
}

// RegionalDomesticIntl answers Fig. 8.
func (ix *Index) RegionalDomesticIntl() map[world.Region]SplitShares {
	out := make(map[world.Region]SplitShares, len(ix.regionSplit))
	for reg, c := range ix.regionSplit {
		out[reg] = c.shares()
	}
	return out
}

// CrossBorderFlows answers Fig. 9. Per-source totals count every
// record with a known destination (domestic included), exactly as the
// record-scanning version does.
func (ix *Index) CrossBorderFlows(kind FlowKind) []Flow {
	pairs := ix.pairs(kind)
	perSrc := map[string]int{}
	for k, n := range pairs {
		perSrc[k[0]] += n
	}
	var out []Flow
	for k, n := range pairs {
		if k[1] == k[0] {
			continue
		}
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

// InRegionShare answers Table 5.
func (ix *Index) InRegionShare(w *world.Model) map[world.Region]float64 {
	total := map[world.Region]int{}
	inRegion := map[world.Region]int{}
	for k, n := range ix.locPairs {
		if k[1] == k[0] {
			continue
		}
		src := w.Country(k[0])
		dst := w.Country(k[1])
		if src == nil || dst == nil {
			continue
		}
		total[src.Region] += n
		if src.Region == dst.Region {
			inRegion[src.Region] += n
		}
	}
	out := map[world.Region]float64{}
	for reg, n := range total {
		out[reg] = float64(inRegion[reg]) / float64(n)
	}
	return out
}

// RegionalAffinity answers the §6.3 in-region host shares.
func (ix *Index) RegionalAffinity(w *world.Model) map[world.Region]map[string]float64 {
	counts := map[world.Region]map[string]int{}
	totals := map[world.Region]int{}
	for k, n := range ix.locPairs {
		if k[1] == k[0] {
			continue
		}
		src := w.Country(k[0])
		dst := w.Country(k[1])
		if src == nil || dst == nil || src.Region != dst.Region {
			continue
		}
		if counts[src.Region] == nil {
			counts[src.Region] = map[string]int{}
		}
		counts[src.Region][k[1]] += n
		totals[src.Region] += n
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

// GDPRCompliance answers the §6.3 EU finding.
func (ix *Index) GDPRCompliance(w *world.Model) (compliant, total int) {
	for k, n := range ix.locPairs {
		src := w.Country(k[0])
		if src == nil || !src.EU {
			continue
		}
		total += n
		dst := w.Country(k[1])
		if dst != nil && dst.EU {
			compliant += n
		}
	}
	return compliant, total
}

// RegionFlowMatrix answers the Fig. 9 region-to-region aggregation.
func (ix *Index) RegionFlowMatrix(w *world.Model, kind FlowKind) map[world.Region]map[world.Region]int {
	out := map[world.Region]map[world.Region]int{}
	for k, n := range ix.pairs(kind) {
		if k[1] == k[0] {
			continue
		}
		dst := w.Country(k[1])
		if dst == nil {
			continue
		}
		srcReg := ix.countryRegion[k[0]]
		if out[srcReg] == nil {
			out[srcReg] = map[world.Region]int{}
		}
		out[srcReg][dst.Region] += n
	}
	return out
}

// AbroadInNAWE answers the §6.3 57 % finding.
func (ix *Index) AbroadInNAWE() float64 {
	total, nawe := 0, 0
	for k, n := range ix.locPairs {
		if k[1] == k[0] {
			continue
		}
		total += n
		if westernNAWE[k[1]] {
			nawe += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(nawe) / float64(total)
}

// GlobalProviderFootprints answers Fig. 10.
func (ix *Index) GlobalProviderFootprints() []ProviderFootprint {
	out := make([]ProviderFootprint, 0, len(ix.providerCountries))
	for asn, set := range ix.providerCountries {
		out = append(out, ProviderFootprint{ASN: asn, Org: ix.providerOrgs[asn], Countries: len(set)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Countries != out[j].Countries {
			return out[i].Countries > out[j].Countries
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// Diversify answers Fig. 11.
func (ix *Index) Diversify() []Diversification {
	codes := make([]string, 0, len(ix.diversify))
	for c := range ix.diversify {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	out := make([]Diversification, 0, len(codes))
	for _, c := range codes {
		a := ix.diversify[c]
		shares := a.shares
		shares.normalize()
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
			DominantCat: shares.Bytes.Dominant(),
			TopNetShare: topShare,
		})
	}
	return out
}

// CompareTopsites answers Figs. 3 and 7.
func (ix *Index) CompareTopsites() Comparison {
	cmp := Comparison{Gov: ix.subsetGov, Topsites: ix.topsites}
	cmp.Gov.normalize()
	cmp.Topsites.normalize()
	cmp.GovSplit = ix.subsetSplit.shares()
	cmp.TopSplit = ix.topSplit.shares()
	return cmp
}

// westernNAWE is the AbroadInNAWE destination set (North America and
// Western Europe), shared with the record-scanning version.
var westernNAWE = map[string]bool{
	"US": true, "CA": true, "DE": true, "FR": true, "GB": true, "NL": true,
	"IE": true, "BE": true, "CH": true, "AT": true, "LU": true, "ES": true,
	"IT": true, "PT": true, "DK": true, "NO": true, "SE": true, "FI": true,
}
