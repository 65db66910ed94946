// Package dataset defines the record types the measurement pipeline
// produces and the analysis consumes: one annotated record per
// government URL (Table 2's fields), plus dataset-level statistics
// (Table 3, Table 8).
package dataset

import (
	"net/netip"
	"sort"

	"repro/internal/world"
)

// URLRecord is one fully annotated government URL. Its json tags are
// the wire schema of the dataset: the JSONL export writes a record as
// these keys plus the line's kind, and a checkpoint stores its records
// under them.
type URLRecord struct {
	URL     string       `json:"url"`
	Host    string       `json:"host"`
	Country string       `json:"country"` // the government the URL belongs to
	Region  world.Region `json:"region"`
	Bytes   int64        `json:"bytes"`
	Depth   int          `json:"depth"`

	Method string `json:"method,omitempty"` // Table 1 classification method: tld / domain / san

	// Serving infrastructure (§3.4).
	IP         netip.Addr `json:"ip"`
	ASN        int        `json:"asn"`
	Org        string     `json:"org"`
	RegCountry string     `json:"regCountry"`      // WHOIS country of registration
	GovAS      bool       `json:"govAS,omitempty"` // classified as government/SOE network

	// Geolocation (§3.5).
	Anycast      bool   `json:"anycast,omitempty"`
	ServeCountry string `json:"serveCountry,omitempty"` // validated server country; "" when excluded
	GeoMethod    string `json:"geoMethod,omitempty"`    // AP / MG / UR / EX

	// Category is the provider category assigned by the analysis. For
	// top-site records, CatGovtSOE stands for "Self-Hosting"
	// (Appendix D redefines the first category for popular sites).
	Category world.Category `json:"category"`

	// TopsiteSelf marks top-site records the Appendix D CNAME/SAN
	// heuristic identified as self-hosted.
	TopsiteSelf bool `json:"topsiteSelf,omitempty"`

	// HTTPSValid reports whether the site's certificate would pass
	// browser validation (extension: Singanamalla et al., §9).
	HTTPSValid bool `json:"httpsValid,omitempty"`
}

// Domestic reports whether the URL is served from inside its own
// country (false when geolocation failed).
func (r *URLRecord) Domestic() bool {
	return r.ServeCountry != "" && r.ServeCountry == r.Country
}

// RegDomestic reports whether the serving organization is registered
// in the URL's country.
func (r *URLRecord) RegDomestic() bool {
	return r.RegCountry != "" && r.RegCountry == r.Country
}

// CountryStats is the per-country slice of Table 8, extended with the
// paper-style coverage accounting (Tables 3–4 report the harness's own
// failure statistics; a pipeline that silently drops failures cannot).
// Its json tags are the wire schema of a country-statistics row, in
// the JSONL export and in a checkpoint.
type CountryStats struct {
	Country      string       `json:"country"`
	Region       world.Region `json:"region"`
	LandingURLs  int          `json:"landingURLs"`
	InternalURLs int          `json:"internalURLs"`
	Hostnames    int          `json:"hostnames"`

	// Coverage accounting.
	Attempted  int            `json:"attempted,omitempty"`  // URLs fetched during the crawl
	FailedURLs int            `json:"failedURLs,omitempty"` // fetches that classified as failures
	Failures   map[string]int `json:"failures,omitempty"`   // failure counts by taxonomy bucket (fetch.FailKind)
	Retries    int            `json:"retries,omitempty"`    // retry attempts the fetch stack spent
	// VantageAttempts counts VPN connections used to obtain a
	// validated egress (1 = the first egress validated).
	VantageAttempts int `json:"vantageAttempts,omitempty"`

	// Failed marks a country whose collection failed wholesale (no
	// validated vantage within the re-connection bound); its records
	// are absent and FailureReason says why. The study still completes
	// with a partial dataset.
	Failed        bool   `json:"failed,omitempty"`
	FailureReason string `json:"failureReason,omitempty"`
}

// AddFailure counts one failure of the given kind.
func (s *CountryStats) AddFailure(kind string) {
	if s.Failures == nil {
		s.Failures = map[string]int{}
	}
	s.Failures[kind]++
	s.FailedURLs++
}

// Dataset is the complete study output.
type Dataset struct {
	Records  []URLRecord // government URLs (post-filter)
	Topsites []URLRecord // Appendix D baseline records (14 countries)

	PerCountry map[string]*CountryStats

	// Totals (Table 3).
	TotalLanding    int
	TotalInternal   int
	TotalUniqueURLs int
	TotalHostnames  int
	ASes            int
	GovASes         int
	UniqueIPs       int
	AnycastIPs      int
	ServerCountries int

	// Method yields (Table 1 discussion in §4.2).
	MethodTLD, MethodDomain, MethodSAN int
	Discarded                          int

	// Coverage totals, aggregated from PerCountry: how much of the
	// attempted collection actually landed, and why the rest did not.
	TotalAttempted  int
	TotalFailedURLs int
	FailuresByKind  map[string]int
	TotalRetries    int
	FailedCountries []string // sorted codes of countries that failed wholesale

	Scale float64
	Seed  int64
}

// SortRecords orders records deterministically (by country, then URL).
// sort.Slice, not slices.SortFunc: the generic sort copies whole
// records around while the reflect-based one swaps in place, and at
// ~230 bytes per record the copies dominate.
func SortRecords(recs []URLRecord) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Country != recs[j].Country {
			return recs[i].Country < recs[j].Country
		}
		return recs[i].URL < recs[j].URL
	})
}

// FillTotals sorts both record slices into their canonical order and
// computes the Table 3 aggregate statistics from the records and
// per-country stats. It resets every total before summing, so it is
// idempotent: calling it again on a filled dataset changes nothing.
//
// Sorted, a host's records sit mostly side by side, so a record whose
// serving tuple (host, IP, ASN, government AS, anycast, serving
// country) equals the previous record's adds nothing to those sets and
// skips them; only its URL is inserted.
func (d *Dataset) FillTotals() {
	SortRecords(d.Records)
	SortRecords(d.Topsites)

	hosts := map[string]bool{}
	ips := map[netip.Addr]bool{}
	anycastIPs := map[netip.Addr]bool{}
	asns := map[int]bool{}
	govASNs := map[int]bool{}
	serveCountries := map[string]bool{}
	urls := make(map[string]bool, len(d.Records))

	for i := range d.Records {
		r := &d.Records[i]
		urls[r.URL] = true
		if i > 0 && sameServing(r, &d.Records[i-1]) {
			continue
		}
		hosts[r.Host] = true
		ips[r.IP] = true
		asns[r.ASN] = true
		if r.GovAS {
			govASNs[r.ASN] = true
		}
		if r.Anycast {
			anycastIPs[r.IP] = true
		}
		if r.ServeCountry != "" {
			serveCountries[r.ServeCountry] = true
		}
	}
	// Reset the summed fields so FillTotals is idempotent — it runs
	// once after a live pipeline and once after a load, and a caller
	// doing both (load, then fill again) must not double-count.
	d.TotalLanding, d.TotalInternal = 0, 0
	d.TotalAttempted, d.TotalFailedURLs, d.TotalRetries = 0, 0, 0
	d.FailuresByKind = nil
	d.FailedCountries = nil

	//lint:ignore map-order -- the per-country sums commute and FailedCountries is sorted below
	for _, st := range d.PerCountry {
		d.TotalLanding += st.LandingURLs
		d.TotalInternal += st.InternalURLs
		d.TotalAttempted += st.Attempted
		d.TotalFailedURLs += st.FailedURLs
		d.TotalRetries += st.Retries
		//lint:ignore map-order -- per-kind sums commute
		for kind, n := range st.Failures {
			if d.FailuresByKind == nil {
				d.FailuresByKind = map[string]int{}
			}
			d.FailuresByKind[kind] += n
		}
		if st.Failed {
			d.FailedCountries = append(d.FailedCountries, st.Country)
		}
	}
	sort.Strings(d.FailedCountries)
	d.TotalUniqueURLs = len(urls)
	d.TotalHostnames = len(hosts)
	d.UniqueIPs = len(ips)
	d.AnycastIPs = len(anycastIPs)
	d.ASes = len(asns)
	d.GovASes = len(govASNs)
	d.ServerCountries = len(serveCountries)
}

// sameServing reports whether two records share every field FillTotals
// collects into its host, IP, ASN and serving-country sets.
func sameServing(a, b *URLRecord) bool {
	return a.Host == b.Host && a.IP == b.IP && a.ASN == b.ASN &&
		a.GovAS == b.GovAS && a.Anycast == b.Anycast && a.ServeCountry == b.ServeCountry
}
