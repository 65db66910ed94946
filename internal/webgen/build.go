package webgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/tlssim"
	"repro/internal/world"
)

// depthShare is the ground-truth distribution of internal URLs over
// tree depth, matching §4.2: 84 % of URLs are found directly on the
// landing pages and 95 % within one additional level.
var depthShare = []float64{0, 0.84, 0.11, 0.02, 0.012, 0.008, 0.006, 0.004}

// resourceExts weights subresource types and nominal sizes.
var resourceExts = []struct {
	ext  string
	ct   string
	size float64 // mean bytes
}{
	{"css", "text/css", 18_000},
	{"js", "application/javascript", 55_000},
	{"png", "image/png", 120_000},
	{"jpg", "image/jpeg", 160_000},
	{"svg", "image/svg+xml", 9_000},
	{"pdf", "application/pdf", 450_000},
	{"woff2", "font/woff2", 30_000},
}

// Build generates the synthetic web for every panel country.
func Build(w *world.Model, net *netsim.Net, profiles map[string]*world.Profile, seed int64, scale float64) *Estate {
	if scale <= 0 {
		scale = 1
	}
	e := &Estate{
		World:       w,
		Net:         net,
		Certs:       tlssim.NewStore(),
		Sites:       make(map[string]*Site),
		ByCountry:   make(map[string][]*Site),
		LandingURLs: make(map[string][]string),
		Topsites:    make(map[string][]*Site),
		Scale:       scale,
	}
	g := &generator{e: e, w: w, net: net, profiles: profiles, seed: seed}
	g.buildContractors()
	for _, c := range w.Panel() {
		if c.Landing == 0 {
			continue
		}
		g.buildCountry(c)
	}
	g.buildTopsites()
	return e
}

type generator struct {
	e        *Estate
	w        *world.Model
	net      *netsim.Net
	profiles map[string]*world.Profile
	seed     int64

	contractors []*Site
	provUsed    map[string]map[string]bool    // country → provider keys already serving it
	provLoad    map[string]map[string]float64 // country → provider → assigned URL weight
	provTotal   map[string]float64            // country → total global URL weight
	provCap     map[string]int                // country → portfolio size limit
}

// pickProvider chooses a global provider for one hostname of the given
// URL weight. Three forces shape the draw, mirroring how provider
// portfolios look in the wild:
//
//   - popularity: BaseShare (plus the country's §7.1 boosts),
//   - coverage: a country that adopted a provider eventually puts at
//     least something on it — its first global site goes to the most
//     popular adopted provider, and unused adopted providers keep a
//     first-use bonus (Fig. 10 counts exactly this),
//   - balance: a provider already holding much of the country's global
//     byte weight is damped, which keeps 3P-Global-heavy governments
//     diversified (Fig. 11) unless a boost pins them.
//
// canServeDomestically reports whether the provider can deliver the
// country's content from inside the country (anycast presence or a
// local data centre).
func (g *generator) canServeDomestically(p *netsim.Provider, country string) bool {
	if p.Anycast {
		return g.net.HasAnycastPresence(p.Key, country)
	}
	return p.HasDC(country)
}

func (g *generator) pickProvider(c *world.Country, prof *world.Profile, provs []*netsim.Provider, weight float64, domestic bool, r *rand.Rand) *netsim.Provider {
	// Governments run small provider portfolios: a handful of
	// contracts, not the whole market. The portfolio cap set in
	// ensureProvState bounds how many distinct global providers a
	// country ends up using, keeping Fig. 10's tail thin.
	g.ensureProvState(c, r)
	used := g.provUsed[c.Code]
	load := g.provLoad[c.Code]
	total := g.provTotal[c.Code]

	eff := func(p *netsim.Provider) float64 {
		w := p.BaseShare
		if boost, ok := prof.ProviderBoost[p.Key]; ok {
			w *= boost
		}
		if total > 0 {
			w /= 1 + 5*load[p.Key]/total
		}
		// Domestic content strongly prefers providers that can answer
		// from inside the country; accidental foreign serving through
		// a DC-less contract happens, but rarely.
		if domestic && !g.canServeDomestically(p, c.Code) {
			w *= 0.15
		}
		return w
	}

	var unused []*netsim.Provider
	if len(used) < g.provCap[c.Code] {
		for _, p := range provs {
			if !used[p.Key] {
				unused = append(unused, p)
			}
		}
	} else {
		// Portfolio full: restrict to providers already under
		// contract when any of them is in the candidate set.
		var inUse []*netsim.Provider
		for _, p := range provs {
			if used[p.Key] {
				inUse = append(inUse, p)
			}
		}
		if len(inUse) > 0 {
			provs = inUse
		}
	}
	var chosen *netsim.Provider
	switch {
	case domestic && len(used) == 0 && len(unused) > 0:
		// First domestic global choice: the market leader among the
		// adopted providers.
		best := unused[0]
		for _, p := range unused {
			if eff(p) > eff(best) {
				best = p
			}
		}
		chosen = best
	default:
		pool := provs
		if domestic && len(unused) > 0 && r.Float64() < 0.4 {
			pool = unused
		}
		if !domestic {
			// Foreign hosting is contract-sticky: reuse an existing
			// provider relationship when one fits the destination.
			var inUse []*netsim.Provider
			for _, p := range provs {
				if used[p.Key] {
					inUse = append(inUse, p)
				}
			}
			if len(inUse) > 0 && r.Float64() < 0.8 {
				pool = inUse
			}
		}
		ws := make([]float64, len(pool))
		for i, p := range pool {
			ws[i] = eff(p)
		}
		chosen = pool[rng.Pick(r, ws)]
	}
	used[chosen.Key] = true
	load[chosen.Key] += weight
	g.provTotal[c.Code] = total + weight
	return chosen
}

// ensureProvState lazily initialises the per-country provider
// bookkeeping (pickProvider normally does this on first use).
func (g *generator) ensureProvState(c *world.Country, r *rand.Rand) {
	if g.provUsed == nil {
		g.provUsed = map[string]map[string]bool{}
		g.provLoad = map[string]map[string]float64{}
		g.provTotal = map[string]float64{}
		g.provCap = map[string]int{}
	}
	if g.provUsed[c.Code] == nil {
		g.provUsed[c.Code] = map[string]bool{}
		g.provLoad[c.Code] = map[string]float64{}
		g.provCap[c.Code] = 2 + r.Intn(3)
	}
}

// buildContractors creates a global pool of external contractor and
// tracker sites; government pages link to them, and the §3.3 filter
// must discard them.
func (g *generator) buildContractors() {
	r := rng.New(g.seed, "contractors")
	names := []string{
		"cdn.websolutions", "static.cloudassets", "analytics.trackmetrics",
		"fonts.typeserve", "player.videostream", "widgets.socialhub",
		"maps.geoportal", "forms.surveypro", "img.mediastore", "api.paygate",
	}
	for i, base := range names {
		for j := 0; j < 3; j++ {
			host := fmt.Sprintf("%s%d.com", base, j+1)
			p := g.net.Providers[rng.Pick(r, []float64{0.4, 0.3, 0.3})]
			site := &Site{
				Host:              host,
				Kind:              KindContractor,
				Endpoint:          g.net.ProviderHostAt(p, "US", r),
				TruthServeCountry: "US",
				TruthCategory:     world.Cat3PGlobal,
			}
			site.Pages = map[string]*Page{}
			for k := 0; k < 3; k++ {
				path := fmt.Sprintf("/asset-%d-%d.js", i, k)
				site.Pages[path] = &Page{
					Path: path, Depth: 1, Size: int64(20_000 + r.Intn(60_000)),
					ContentType: "application/javascript",
				}
			}
			g.e.addSite(site)
			g.contractors = append(g.contractors, site)
		}
	}
}

// hostPlan describes one planned government hostname before its pages
// are generated.
type hostPlan struct {
	site     *Site
	urls     int  // internal-URL budget
	landings int  // landing paths on this host (≥1 for directory-listed sites)
	soe      bool // state-owned-enterprise site
}

func (g *generator) buildCountry(c *world.Country) {
	r := rng.New(g.seed, "estate/"+c.Code)
	prof := g.profiles[c.Code]
	if prof == nil {
		panic("webgen: no profile for " + c.Code)
	}

	nHosts := scaleCount(c.Hostnames, g.e.Scale, 3)
	nLanding := scaleCount(c.Landing, g.e.Scale, 3)
	nInternal := scaleCount(c.InternalURLs, g.e.Scale, nHosts*4)

	// When a country exposes fewer directory-listed landing pages than
	// it has government hostnames (the US case: 1,340 landing URLs but
	// 2,343 hostnames), the surplus hosts are reachable only through
	// links. Those must sit under a government TLD, or the §3.3 filter
	// would discard them — exactly what keeps them in the paper's
	// dataset too.
	nonLanding := 0
	if nHosts > nLanding {
		nonLanding = nHosts - nLanding
	}
	plans := g.planHosts(c, prof, nHosts, nonLanding, r)

	// France's gouv.nc estate: 18 % of French government URLs are
	// served from New Caledonia's state-owned OPT, all under the single
	// hostname gouv.nc (§6.3). That share is carved out of the URL
	// budget before the regular hosts split the remainder.
	var ncPlan *hostPlan
	if c.Code == "FR" {
		site := &Site{
			Host: "gouv.nc", Country: "FR", Kind: KindGov, GovTLD: true,
			Endpoint:          g.net.SOEHostIn("NC", r),
			TruthServeCountry: "NC",
			TruthCategory:     world.CatGovtSOE,
			byteBoost:         byteBoost(c, prof, world.CatGovtSOE),
		}
		g.e.addSite(site)
		ncPlan = &hostPlan{site: site, landings: 1, urls: int(0.185 * float64(nInternal))}
		nInternal -= ncPlan.urls
	}

	g.splitURLBudget(plans, nInternal, nLanding, c, r)
	g.assignEndpoints(c, prof, plans, r)
	if ncPlan != nil {
		plans = append(plans, ncPlan)
	}

	// SAN-only affiliates: government resources whose hostnames carry
	// no government signal; they are reachable only through links and
	// SAN lists (orniss.ro, energia-argentina.com.ar style).
	sanBudget := int(math.Round(float64(nInternal) * 0.003))
	sanSites := g.buildSANOnly(c, prof, sanBudget, r)

	g.buildPages(c, plans, sanSites, r)
	g.buildCerts(c, plans, sanSites, r)

	for _, p := range plans {
		g.e.LandingURLs[c.Code] = append(g.e.LandingURLs[c.Code], p.site.Landing...)
	}
}

// planHosts allocates hostnames, kinds and serving endpoints. The last
// nonLanding hosts are not directory-listed; they are forced under a
// government TLD so the classifier retains them.
func (g *generator) planHosts(c *world.Country, prof *world.Profile, nHosts, nonLanding int, r *rand.Rand) []*hostPlan {
	var plans []*hostPlan
	used := map[string]bool{}
	bodies := append(append([]string{}, naming.Ministries...), naming.Agencies...)

	for i := 0; i < nHosts; i++ {
		linkOnly := i >= nHosts-nonLanding && len(c.GovSuffix) > 0
		isSOE := !linkOnly && r.Float64() < 0.12
		var host string
		var govTLD bool
		if isSOE {
			kind := naming.SOEs[i%len(naming.SOEs)]
			host = naming.SOEHost(c, kind)
			if used[host] {
				host = fmt.Sprintf("%s%d-%s.%s", kind, i, strings.ToLower(c.Code), c.CCTLD)
			}
		} else {
			underGov := linkOnly || (len(c.GovSuffix) > 0 && r.Float64() > c.NonGovTLDShare)
			var body string
			if i < len(bodies) {
				body = bodies[i]
			} else {
				body = fmt.Sprintf("%s%d", bodies[i%len(bodies)], i/len(bodies)+1)
			}
			host = naming.GovHost(c, body, underGov)
			govTLD = underGov
			if used[host] {
				host = naming.GovHost(c, fmt.Sprintf("%s-%d", body, i), underGov)
			}
		}
		if used[host] {
			continue
		}
		used[host] = true
		site := &Site{Host: host, Country: c.Code, GovTLD: govTLD}
		if isSOE {
			site.Kind = KindSOE
		} else {
			site.Kind = KindGov
		}
		site.GeoBlocked = r.Float64() < 0.04
		site.HTTPSValid = r.Float64() < httpsValidProb(c)
		g.e.addSite(site)
		landings := 1
		if linkOnly {
			landings = 0
		}
		plans = append(plans, &hostPlan{site: site, landings: landings, soe: isSOE})
	}
	return plans
}

// assignEndpoints pins every planned site to a serving endpoint. The
// international-serving share and the four category shares are treated
// as URL-weighted quotas and hosts are assigned largest-first, so the
// realized (URL-weighted) mix tracks the profile tightly even though
// URL budgets are heavy-tailed.
func (g *generator) assignEndpoints(c *world.Country, prof *world.Profile, plans []*hostPlan, r *rand.Rand) {
	var total float64
	for _, p := range plans {
		total += float64(p.urls + p.landings)
	}
	// Bucket 0..3: domestic categories; bucket 4: deliberately served
	// from abroad.
	var quotas [5]float64
	for _, cat := range world.Categories {
		quotas[cat] = (1 - prof.IntlServe) * prof.MixURLs[cat] * total
	}
	quotas[4] = prof.IntlServe * total

	order := make([]*hostPlan, len(plans))
	copy(order, plans)
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].urls+order[i].landings > order[j].urls+order[j].landings
	})
	for _, p := range order {
		w := float64(p.urls + p.landings)
		best := 0
		for b := 1; b < len(quotas); b++ {
			if quotas[b] > quotas[best] {
				best = b
			}
		}
		quotas[best] -= w
		if best == 4 {
			g.foreignEndpoint(c, prof, p.site, w, r)
		} else {
			g.domesticEndpoint(c, prof, p.site, world.Category(best), p.soe, w, r)
		}
	}
	// Even governments that host almost everything themselves tend to
	// put at least one minor site behind the dominant CDN (free-tier
	// Cloudflare fronting is ubiquitous); without this floor the
	// Fig. 10 leader's footprint collapses to the big adopters.
	adopted := g.net.AdoptedProviders(c.Code)
	if len(adopted) > 0 && len(order) > 1 {
		top := adopted[0]
		for _, p := range adopted {
			if p.BaseShare > top.BaseShare {
				top = p
			}
		}
		if !g.provUsed[c.Code][top.Key] {
			g.ensureProvState(c, r)
			smallest := order[len(order)-1]
			site := smallest.site
			site.Endpoint = g.net.ProviderHostFor(top, c.Code, r)
			if site.Endpoint.Anycast {
				site.TruthServeCountry = g.net.AnycastSiteFor(top.Key, c.Code)
			} else {
				site.TruthServeCountry = site.Endpoint.Country
			}
			site.TruthCategory = truthCategory(c, site.Endpoint)
			site.byteBoost = byteBoost(c, prof, site.TruthCategory)
			g.provUsed[c.Code][top.Key] = true
			g.provLoad[c.Code][top.Key] += float64(smallest.urls + smallest.landings)
			g.provTotal[c.Code] += float64(smallest.urls + smallest.landings)
		}
	}
}

// sampleEndpoint assigns one site probabilistically (used for the
// small SAN-only estates where quotas are overkill).
func (g *generator) sampleEndpoint(c *world.Country, prof *world.Profile, site *Site, isSOE bool, r *rand.Rand) {
	if r.Float64() < prof.IntlServe {
		g.foreignEndpoint(c, prof, site, 1, r)
		return
	}
	cat := world.Categories[rng.Pick(r, prof.MixURLs[:])]
	g.domesticEndpoint(c, prof, site, cat, isSOE, 1, r)
}

// foreignEndpoint places a site on infrastructure in one of the
// profile's destination countries.
func (g *generator) foreignEndpoint(c *world.Country, prof *world.Profile, site *Site, weight float64, r *rand.Rand) {
	codes, ws := prof.DestWeights()
	dest := codes[rng.Pick(r, ws)]
	if dest == c.Code {
		g.domesticEndpoint(c, prof, site, prof.MixURLs.Dominant(), false, weight, r)
		return
	}
	var ep *netsim.Host
	withDC := g.net.ProvidersWithDC(dest)
	// Same-region foreign hosting often lands on destination-local
	// hosters (China's JP-hosted estates sit with Japanese providers);
	// farther away, it is almost always a global provider's DC.
	localProb := 0.08
	if dc := g.w.Country(dest); dc != nil && dc.Region == c.Region {
		localProb = 0.35
	}
	switch {
	case r.Float64() < localProb || len(withDC) == 0:
		ep = g.net.ForeignHostFor(c, dest, r)
	default:
		p := g.pickProvider(c, prof, withDC, weight, false, r)
		ep = g.net.ProviderHostAt(p, dest, r)
	}
	site.Endpoint = ep
	site.TruthServeCountry = ep.Country
	site.TruthCategory = truthCategory(c, ep)
	site.byteBoost = byteBoost(c, prof, site.TruthCategory)
}

// domesticEndpoint places a site on in-country infrastructure of the
// requested category.
func (g *generator) domesticEndpoint(c *world.Country, prof *world.Profile, site *Site, cat world.Category, isSOE bool, weight float64, r *rand.Rand) {
	switch cat {
	case world.CatGovtSOE:
		site.Endpoint = g.net.GovHostFor(c.Code, isSOE || r.Float64() < 0.18, c.Code, r)
	case world.Cat3PLocal:
		site.Endpoint = g.net.LocalHostFor(c.Code, r)
	case world.Cat3PRegional:
		site.Endpoint = g.net.RegionalHostFor(c, r)
	default: // 3P Global
		provs := g.net.AdoptedProviders(c.Code)
		if len(provs) == 0 {
			site.Endpoint = g.net.LocalHostFor(c.Code, r)
		} else {
			p := g.pickProvider(c, prof, provs, weight, true, r)
			site.Endpoint = g.net.ProviderHostFor(p, c.Code, r)
		}
	}
	ep := site.Endpoint
	if ep.Anycast {
		site.TruthServeCountry = g.net.AnycastSiteFor(ep.Provider.Key, c.Code)
	} else {
		site.TruthServeCountry = ep.Country
	}
	site.TruthCategory = truthCategory(c, ep)
	site.byteBoost = byteBoost(c, prof, site.TruthCategory)
}

// byteBoost converts the URL/byte mix pair into a per-category size
// multiplier (realized byte share ≈ MixURLs·boost = MixBytes), scaled
// by a country page-weight factor: Habib et al. (§9) find public
// service websites in developing countries ship markedly heavier
// pages, so lower-HDI countries get a uniform size surcharge that
// leaves category ratios untouched.
func byteBoost(c *world.Country, prof *world.Profile, cat world.Category) float64 {
	u, b := prof.MixURLs[cat], prof.MixBytes[cat]
	boost := 1.0
	if u >= 0.005 {
		boost = b / u
		if boost < 0.05 {
			boost = 0.05
		}
		if boost > 20 {
			boost = 20
		}
	}
	return boost * pageWeightFactor(c)
}

// pageWeightFactor is ~1.3 for the least developed countries in the
// panel and ~0.9 for the most developed ones.
func pageWeightFactor(c *world.Country) float64 {
	hdi := c.HDI
	if hdi == 0 {
		hdi = 0.9 // Taiwan: no UN index
	}
	return 1.35 - 0.5*hdi
}

// truthCategory derives the ground-truth provider category of an
// endpoint from the owning country's perspective.
func truthCategory(c *world.Country, ep *netsim.Host) world.Category {
	switch ep.AS.Kind {
	case netsim.KindGovernment, netsim.KindSOE:
		return world.CatGovtSOE
	case netsim.KindGlobal:
		return world.Cat3PGlobal
	default:
		if ep.AS.RegCountry == c.Code {
			return world.Cat3PLocal
		}
		return world.Cat3PRegional
	}
}

// splitURLBudget distributes the country's internal-URL and landing
// budgets over its hosts; a small set of portal hosts receive both
// extra landing paths and heavier trees, mirroring gov.br-style
// portals.
func (g *generator) splitURLBudget(plans []*hostPlan, nInternal, nLanding int, c *world.Country, r *rand.Rand) {
	if len(plans) == 0 {
		return
	}
	weights := make([]float64, len(plans))
	var sum float64
	for i := range plans {
		w := rng.LogNormal(r, 0, 0.85)
		if i < len(plans)/10+1 {
			w *= 4 // portals
		}
		weights[i] = w
		sum += w
	}
	assigned := 0
	for i, p := range plans {
		p.urls = int(float64(nInternal) * weights[i] / sum)
		assigned += p.urls
	}
	plans[0].urls += nInternal - assigned // remainder to the top portal

	nLandingHosts := 0
	for _, p := range plans {
		if p.landings > 0 {
			nLandingHosts++
		}
	}
	extra := nLanding - nLandingHosts
	for i := 0; extra > 0; i = (i + 1) % len(plans) {
		if i < len(plans)/10+1 && plans[i].landings > 0 {
			plans[i].landings++
			extra--
		}
	}
}

func (g *generator) buildSANOnly(c *world.Country, prof *world.Profile, budget int, r *rand.Rand) []*Site {
	if budget <= 0 {
		return nil
	}
	var sites []*Site
	n := 1
	if budget > 6 {
		n = 2
	}
	kinds := []string{"energia", "infraestructura", "registry", "logistics"}
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("%s-%s.com", kinds[(i+len(c.Code))%len(kinds)], strings.ToLower(c.Name[:min(6, len(c.Name))]))
		host = strings.ReplaceAll(host, " ", "")
		if g.e.Sites[host] != nil {
			host = fmt.Sprintf("affiliate%d-%s.com", i, strings.ToLower(c.Code))
		}
		site := &Site{Host: host, Country: c.Code, Kind: KindSANOnly}
		g.sampleEndpoint(c, prof, site, true, r)
		g.e.addSite(site)
		per := budget / n
		if per < 1 {
			per = 1
		}
		for k := 0; k < per; k++ {
			path := fmt.Sprintf("/info-%d", k)
			site.Pages[path] = &Page{Path: path, Depth: 1, Size: sizeFor(site, "text/html", 60_000, r),
				ContentType: "text/html"}
		}
		sites = append(sites, site)
	}
	return sites
}

// buildPages generates each host's page tree and wires cross-links.
func (g *generator) buildPages(c *world.Country, plans []*hostPlan, sanSites []*Site, r *rand.Rand) {
	for pi, plan := range plans {
		site := plan.site
		root := &Page{Path: "/", Depth: 0, ContentType: "text/html",
			Size: sizeFor(site, "text/html", 70_000, r)}
		site.Pages["/"] = root
		if plan.landings > 0 {
			site.Landing = append(site.Landing, site.URL("/"))
		}
		for l := 1; l < plan.landings; l++ {
			path := fmt.Sprintf("/portal-%d", l)
			site.Landing = append(site.Landing, site.URL(path))
			site.Pages[path] = &Page{Path: path, Depth: 0, ContentType: "text/html",
				Size: sizeFor(site, "text/html", 70_000, r)}
		}

		// Internal URLs with the §4.2 depth distribution.
		perDepth := make([]int, 8)
		for i := 0; i < plan.urls; i++ {
			d := 1 + rng.Pick(r, depthShare[1:])
			perDepth[d]++
		}
		// A deep tree needs at least one document per intermediate
		// level; promote budget upward when a level would be orphaned.
		for d := 2; d <= 7; d++ {
			if perDepth[d] > 0 && perDepth[d-1] == 0 {
				perDepth[d-1], perDepth[d] = 1, perDepth[d]-1
			}
		}
		docsAt := map[int][]*Page{0: {root}}
		for d := 1; d <= 7; d++ {
			parents := docsAt[d-1]
			if len(parents) == 0 {
				break
			}
			for i := 0; i < perDepth[d]; i++ {
				isDoc := r.Float64() < 0.55
				var page *Page
				if isDoc {
					path := fmt.Sprintf("/l%d/page-%d", d, i)
					page = &Page{Path: path, Depth: d, ContentType: "text/html",
						Size: sizeFor(site, "text/html", 60_000, r)}
					docsAt[d] = append(docsAt[d], page)
				} else {
					re := resourceExts[r.Intn(len(resourceExts))]
					path := fmt.Sprintf("/static/d%d-%d.%s", d, i, re.ext)
					page = &Page{Path: path, Depth: d, ContentType: re.ct,
						Size: sizeFor(site, re.ct, re.size, r)}
				}
				site.Pages[page.Path] = page
				parent := parents[r.Intn(len(parents))]
				parent.Links = append(parent.Links, site.URL(page.Path))
			}
		}

		// Cross-links from the landing page: other government hosts of
		// the country, SAN-only affiliates, and external contractors.
		if len(plans) > 1 {
			for k := 0; k < min(3, len(plans)-1); k++ {
				other := plans[(pi+k+1)%len(plans)].site
				root.Links = append(root.Links, other.URL("/"))
			}
		}
		if len(sanSites) > 0 && pi < 2*len(sanSites) {
			san := sanSites[pi%len(sanSites)]
			for _, path := range san.SortedPaths() {
				root.Links = append(root.Links, san.URL(path))
			}
		}
		for k := 0; k < 2; k++ {
			ct := g.contractors[r.Intn(len(g.contractors))]
			paths := ct.SortedPaths()
			root.Links = append(root.Links, ct.URL(paths[r.Intn(len(paths))]))
		}
	}
}

// buildCerts issues certificates for landing sites; a few embed the
// SAN-only hostnames, which is how the pipeline discovers them.
// Certificate validity follows the country's digital development:
// Singanamalla et al. find over 70 % of government sites worldwide
// lack valid HTTPS, with adoption tracking e-government maturity.
func (g *generator) buildCerts(c *world.Country, plans []*hostPlan, sanSites []*Site, r *rand.Rand) {
	invalidReasons := []string{"expired", "self-signed", "hostname-mismatch", "incomplete-chain"}
	for pi, plan := range plans {
		if plan.landings == 0 {
			continue // only landing pages contribute certificates (§3.3)
		}
		site := plan.site
		cert := &tlssim.Certificate{
			Subject: site.Host,
			SANs:    []string{site.Host, "www." + site.Host},
			Issuer:  "GovTrust CA",
			Valid:   site.HTTPSValid,
		}
		if !cert.Valid {
			cert.Invalid = invalidReasons[r.Intn(len(invalidReasons))]
		}
		if pi < 2*len(sanSites) && len(sanSites) > 0 {
			cert.SANs = append(cert.SANs, sanSites[pi%len(sanSites)].Host)
		}
		site.Cert = cert
		g.e.Certs.Put(cert)
	}
}

// sizeFor draws a body size scaled by the category byte-tilt of the
// owning country so that per-category byte shares reproduce the
// profile's MixBytes.
func sizeFor(site *Site, ct string, mean float64, r *rand.Rand) int64 {
	v := rng.LogNormal(r, math.Log(mean)-0.5, 1.0)
	boost := site.byteBoost
	if boost <= 0 {
		boost = 1
	}
	sz := int64(v * boost)
	if sz < 200 {
		sz = 200
	}
	return sz
}

// httpsValidProb follows the country's e-government maturity: the
// Singanamalla et al. extension expects over 70 % of government sites
// worldwide to lack valid HTTPS.
func httpsValidProb(c *world.Country) float64 {
	egdi := c.EGDI
	if egdi == 0 {
		egdi = 0.75 // Taiwan/Hong Kong: no UN index, high development
	}
	return 0.04 + 0.33*egdi
}

func scaleCount(v int, scale float64, floor int) int {
	n := int(math.Round(float64(v) * scale))
	if n < floor {
		n = floor
	}
	return n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
