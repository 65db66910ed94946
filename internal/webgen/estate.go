// Package webgen materialises the synthetic government web: per
// country, a set of hostnames (ministries, agencies, SOEs, portals)
// with page trees up to seven levels deep, subresources, cross-links,
// contractor sites, SAN-only affiliates and TLS certificates. Each
// hostname is pinned to a serving endpoint drawn from the country's
// hosting-policy profile, which is the ground truth the measurement
// pipeline must rediscover.
package webgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/tlssim"
	"repro/internal/world"
)

// SiteKind distinguishes the kinds of hosts in the synthetic web.
type SiteKind int

// Site kinds.
const (
	KindGov        SiteKind = iota // government body site (ministry, agency, portal)
	KindSOE                        // state-owned enterprise site
	KindSANOnly                    // government affiliate discoverable only via SANs
	KindContractor                 // external contractor / tracker — must be filtered out
	KindTopsite                    // popular non-government site (Appendix D baseline)
)

func (k SiteKind) String() string {
	switch k {
	case KindGov:
		return "gov"
	case KindSOE:
		return "soe"
	case KindSANOnly:
		return "san-only"
	case KindContractor:
		return "contractor"
	case KindTopsite:
		return "topsite"
	}
	return "unknown"
}

// Page is one crawlable document or resource on a site.
type Page struct {
	Path        string
	Depth       int      // ground-truth tree depth (0 = landing)
	Links       []string // absolute URLs this page references
	Size        int64    // body size in bytes
	ContentType string
}

// Site is one hostname with its page tree and serving assignment.
type Site struct {
	Host    string
	Country string // owning country code ("" for contractors)
	Kind    SiteKind
	GovTLD  bool // hostname sits under a government TLD pattern

	Landing []string // absolute landing URLs on this host
	Pages   map[string]*Page

	Endpoint *netsim.Host // serving endpoint (ground truth)
	// TruthCategory is the ground-truth provider category of the
	// endpoint from the owning country's perspective.
	TruthCategory world.Category
	// TruthServeCountry is where the content is ground-truth served
	// from for clients inside the owning country.
	TruthServeCountry string

	// CNAME, when non-empty, is the canonical-name target the DNS zone
	// answers for this hostname (used by the Appendix D self-hosting
	// heuristic on top sites).
	CNAME string

	Cert *tlssim.Certificate // landing-page certificate (nil for plain sites)

	// GeoBlocked sites only answer requests from vantage points inside
	// their own country (footnote 1: www.prodecon.gob.mx).
	GeoBlocked bool

	// HTTPSValid reports whether the site serves a certificate a
	// browser would accept (Singanamalla et al. extension).
	HTTPSValid bool

	// byteBoost tilts this site's body sizes so that per-category byte
	// shares reproduce the owning country's MixBytes profile.
	byteBoost float64

	// build is the owning country's deferred page and certificate
	// build; nil for topsites and contractors, which are built whole.
	build *countryBuild
}

// URL returns the absolute URL of a path on this site.
func (s *Site) URL(path string) string {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	return "https://" + s.Host + path
}

// SortedPaths returns the site's paths in deterministic order.
func (s *Site) SortedPaths() []string {
	out := make([]string, 0, len(s.Pages))
	for p := range s.Pages {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Estate is the whole synthetic web. A country's page trees and
// certificates exist once BuildCountry has run for it, which Site and
// GovSites do first; read them through those, not the maps below.
type Estate struct {
	World *world.Model
	Net   *netsim.Net
	Certs *tlssim.Store

	Sites     map[string]*Site // by hostname
	SiteList  []*Site
	ByCountry map[string][]*Site // gov+SOE+SAN-only sites per country

	// LandingURLs per country, the §3.1 directory the pipeline starts
	// from. SAN-only and contractor sites are deliberately absent.
	LandingURLs map[string][]string

	// Topsites per country for the Appendix D comparison.
	Topsites map[string][]*Site

	Scale float64

	// builds holds each country's deferred page-tree and certificate
	// build, run once on first use; the map is read-only after Build.
	builds map[string]*countryBuild
}

// countryBuild is one country's deferred half of the generator: the
// page trees and certificates, drawn from the rest of the country's
// own stream after its host plan.
type countryBuild struct {
	once     sync.Once
	done     atomic.Bool
	g        *generator
	plans    []*hostPlan
	sanSites []*Site
	r        *rand.Rand
}

func (b *countryBuild) run() {
	b.once.Do(func() {
		b.g.buildPages(b.plans, b.sanSites, b.r)
		b.g.buildCerts(b.plans, b.sanSites, b.r)
		b.plans, b.sanSites, b.r = nil, nil, nil
		b.done.Store(true)
	})
}

// Site returns the site for a hostname, or nil. A government, SOE or
// SAN-only site comes back with its country's page trees and
// certificates built; topsites and contractors never trigger a build.
func (e *Estate) Site(host string) *Site {
	s := e.Sites[host]
	if s != nil && s.build != nil {
		s.build.run()
	}
	return s
}

// GovSites returns the government-owned sites (gov, SOE, SAN-only) of
// a country, with the country's page trees and certificates built.
func (e *Estate) GovSites(country string) []*Site {
	e.BuildCountry(country)
	return e.ByCountry[country]
}

// BuildCountry builds a country's page trees and certificates unless
// they are built already. Concurrent callers wait for the one build.
// Building is deferred to first use so that a run which crawls only
// some countries (or none, on resume) generates only their webs; the
// build continues the country's own seeded stream, so when and in
// which order countries are built changes no byte.
func (e *Estate) BuildCountry(code string) {
	if b := e.builds[code]; b != nil {
		b.run()
	}
}

// BuiltCountries returns the codes of the countries whose page trees
// are built, sorted.
func (e *Estate) BuiltCountries() []string {
	var out []string
	for code, b := range e.builds {
		if b.done.Load() {
			out = append(out, code)
		}
	}
	sort.Strings(out)
	return out
}

// buildAll builds every country in panel order.
func (e *Estate) buildAll() {
	for _, c := range e.World.Panel() {
		e.BuildCountry(c.Code)
	}
}

// TotalPages counts pages across all sites, building every country.
func (e *Estate) TotalPages() int {
	e.buildAll()
	n := 0
	for _, s := range e.SiteList {
		n += len(s.Pages)
	}
	return n
}

// addSite registers a site, panicking on hostname collisions: the
// generator must produce a consistent web.
func (e *Estate) addSite(s *Site) {
	if _, dup := e.Sites[s.Host]; dup {
		panic(fmt.Sprintf("webgen: duplicate hostname %q", s.Host))
	}
	if s.Pages == nil {
		s.Pages = make(map[string]*Page)
	}
	e.Sites[s.Host] = s
	e.SiteList = append(e.SiteList, s)
	switch s.Kind {
	case KindGov, KindSOE, KindSANOnly:
		e.ByCountry[s.Country] = append(e.ByCountry[s.Country], s)
	case KindTopsite:
		e.Topsites[s.Country] = append(e.Topsites[s.Country], s)
	}
}
