package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"strings"

	"repro/internal/rng"
	"repro/internal/world"
)

// Host is one serving endpoint: an IP address with ground-truth
// location and measurement-relevant behaviour flags.
type Host struct {
	Addr    netip.Addr
	AS      *AS
	Anycast bool

	// Unicast ground truth. For anycast hosts Country is empty and the
	// effective site depends on the vantage (see AnycastSiteFor).
	Country  string
	Lat, Lon float64

	PTR      string // reverse-DNS name, possibly empty
	ICMP     bool   // responds to ping
	InIPmap  bool   // present in the RIPE IPmap cache (multistage geolocation)
	Provider *Provider
}

// AnycastSiteFor returns the country of the anycast site a client in
// the vantage country reaches: the in-country site when present,
// otherwise the geographically closest site.
func (n *Net) AnycastSiteFor(key, vantage string) string {
	set := n.presence[key]
	if set[vantage] {
		return vantage
	}
	v := n.World.Country(vantage)
	best, bestD := "", 0.0
	for _, code := range n.AnycastSites(key) {
		c := n.World.Country(code)
		if c == nil || v == nil {
			continue
		}
		d := world.Distance(v, c)
		if best == "" || d < bestD {
			best, bestD = code, d
		}
	}
	if best == "" {
		best = n.Provider(key).Home
	}
	return best
}

// newHost creates a host on the AS, placed in the given country with
// coordinates jittered around the capital (servers rarely sit exactly
// at the capital; the jitter is bounded by the country's road span so
// domestic latency stays under the §3.5 threshold). Callers must hold
// n.mu: it mutates the address tables.
func (n *Net) newHost(a *AS, country string, anycast bool, prov *Provider, r *rand.Rand) *Host {
	h := &Host{
		Addr:     n.allocIP(a),
		AS:       a,
		Anycast:  anycast,
		Provider: prov,
	}
	if !anycast {
		c := n.World.MustCountry(country)
		spread := c.MaxRoadKM / 4
		h.Country = country
		h.Lat = c.Lat + (r.Float64()-0.5)*spread/111.0
		h.Lon = c.Lon + (r.Float64()-0.5)*spread/85.0
	}
	h.ICMP = r.Float64() < icmpProb(a.Kind, anycast)
	ipmapProb := 0.85
	if a.Kind == KindGlobal && !anycast {
		ipmapProb = 0.95 // provider DCs are well covered by IPmap
	}
	h.InIPmap = r.Float64() < ipmapProb
	h.PTR = n.ptrName(h, r)
	n.hosts[h.Addr] = h
	n.HostList = append(n.HostList, h)
	return h
}

func icmpProb(kind ASKind, anycast bool) float64 {
	if anycast {
		return 0.98
	}
	switch kind {
	case KindGovernment:
		return 0.40
	case KindSOE:
		return 0.45
	case KindGlobal:
		return 0.42
	default:
		return 0.43
	}
}

// Host returns the host behind the address, or nil.
func (n *Net) Host(addr netip.Addr) *Host {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.hosts[addr]
}

// poolPick implements address reuse: the paper observes ~3 hostnames
// per server address (13,483 hostnames on 4,286 addresses). It holds
// the net lock across lookup and creation.
func (n *Net) poolPick(key string, r *rand.Rand, create func() *Host) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	pool := n.pool[key]
	const reuse = 0.68
	if len(pool) > 0 && r.Float64() < reuse {
		return pool[r.Intn(len(pool))]
	}
	h := create()
	n.pool[key] = append(n.pool[key], h)
	return h
}

// GovHostFor returns a serving endpoint on a government or SOE network
// of the country (soe selects a state-owned enterprise network).
// serveCountry allows cross-border government arrangements such as
// France's gouv.nc estate on New Caledonia's OPT.
func (n *Net) GovHostFor(country string, soe bool, serveCountry string, r *rand.Rand) *Host {
	list := n.govAS[country]
	if soe || len(list) == 0 {
		if s := n.soeAS[country]; len(s) > 0 {
			list = s
		}
	}
	if len(list) == 0 {
		panic("netsim: no government AS for " + country)
	}
	// Government hosting concentrates on a central network (a national
	// informatics centre) with a long tail of departmental ASes, which
	// is what makes Govt&SOE-dominant countries the least diversified
	// in Fig. 11.
	idx := 0
	if r.Float64() > 0.80 {
		idx = zipfPick(r, len(list), 1.2)
	}
	as := list[idx]
	key := fmt.Sprintf("gov|%d|%s", as.ASN, serveCountry)
	return n.poolPick(key, r, func() *Host { return n.newHost(as, serveCountry, false, nil, r) })
}

// SOEHostIn returns a host on a state-owned network *of* the given
// country, e.g. OPT for New Caledonia.
func (n *Net) SOEHostIn(country string, r *rand.Rand) *Host {
	list := n.soeAS[country]
	if len(list) == 0 {
		return n.GovHostFor(country, false, country, r)
	}
	as := list[r.Intn(len(list))]
	key := fmt.Sprintf("soe|%d|%s", as.ASN, country)
	return n.poolPick(key, r, func() *Host { return n.newHost(as, country, false, nil, r) })
}

// LocalHostFor returns a host on a domestic commercial provider.
func (n *Net) LocalHostFor(country string, r *rand.Rand) *Host {
	list := n.localAS[country]
	if len(list) == 0 {
		panic("netsim: no local provider AS for " + country)
	}
	// Domestic hosting markets are concentrated too, but less so than
	// government data centres.
	as := list[zipfPick(r, len(list), 0.8)]
	key := fmt.Sprintf("local|%d", as.ASN)
	return n.poolPick(key, r, func() *Host { return n.newHost(as, country, false, nil, r) })
}

// RegionalHostFor returns a host on a continent-scale provider that is
// registered outside the served country but inside its region. The
// server itself sits in the provider's home country.
func (n *Net) RegionalHostFor(c *world.Country, r *rand.Rand) *Host {
	var candidates []*AS
	for _, as := range n.regional[c.Region] {
		if as.RegCountry != c.Code {
			candidates = append(candidates, as)
		}
	}
	if len(candidates) == 0 {
		return n.LocalHostFor(c.Code, r)
	}
	as := candidates[r.Intn(len(candidates))]
	// Regional providers are registered abroad but operate data centres
	// across their continent; slightly more than half the time the
	// content is served from inside the customer's country. This is
	// what lets Sub-Saharan Africa lean on 3P Regional for 14 % of its
	// URLs while keeping in-region *cross-border* dependencies rare
	// (Table 5).
	loc := as.RegCountry
	if r.Float64() < 0.55 {
		loc = c.Code
	}
	key := fmt.Sprintf("reg|%d|%s", as.ASN, loc)
	return n.poolPick(key, r, func() *Host { return n.newHost(as, loc, false, nil, r) })
}

// ProviderHostFor returns a serving endpoint on the given global
// provider for content of the vantage country: an anycast address when
// the provider runs anycast, otherwise a unicast data-centre host —
// in-country when a DC exists, else at the nearest DC.
func (n *Net) ProviderHostFor(p *Provider, vantage string, r *rand.Rand) *Host {
	as := n.providerAS[p.Key]
	if p.Anycast {
		key := fmt.Sprintf("any|%s|%s", p.Key, vantage)
		return n.poolPick(key, r, func() *Host { return n.newHost(as, "", true, p, r) })
	}
	dc := p.Home
	if p.HasDC(vantage) {
		dc = vantage
	} else {
		dc = n.nearestDC(p, vantage)
	}
	key := fmt.Sprintf("dc|%s|%s", p.Key, dc)
	return n.poolPick(key, r, func() *Host { return n.newHost(as, dc, false, p, r) })
}

// ProviderHostAt returns a unicast endpoint of the provider pinned to
// a specific country (used for deliberate foreign hosting). When the
// provider has no DC there, the nearest DC is used instead.
func (n *Net) ProviderHostAt(p *Provider, country string, r *rand.Rand) *Host {
	as := n.providerAS[p.Key]
	dc := country
	if !p.HasDC(country) {
		dc = n.nearestDC(p, country)
	}
	key := fmt.Sprintf("dc|%s|%s", p.Key, dc)
	return n.poolPick(key, r, func() *Host { return n.newHost(as, dc, false, p, r) })
}

func (n *Net) nearestDC(p *Provider, vantage string) string {
	v := n.World.Country(vantage)
	best, bestD := p.Home, -1.0
	for _, dc := range p.DCs {
		c := n.World.Country(dc)
		if c == nil || v == nil {
			continue
		}
		d := world.Distance(v, c)
		if bestD < 0 || d < bestD {
			best, bestD = dc, d
		}
	}
	return best
}

// ProvidersWithDC returns the non-anycast global providers operating a
// unicast data centre in the country, in catalogue order.
func (n *Net) ProvidersWithDC(country string) []*Provider {
	var out []*Provider
	for _, p := range n.Providers {
		if !p.Anycast && p.HasDC(country) {
			out = append(out, p)
		}
	}
	return out
}

// ForeignHostFor returns an endpoint located in destCountry serving
// content for the government of src: usually a global provider with a
// data centre there, occasionally a dest-country local hoster.
func (n *Net) ForeignHostFor(src *world.Country, destCountry string, r *rand.Rand) *Host {
	if r.Float64() < 0.08 && len(n.localAS[destCountry]) > 0 {
		return n.LocalHostFor(destCountry, r)
	}
	var withDC []*Provider
	var weights []float64
	for _, p := range n.Providers {
		if !p.Anycast && p.HasDC(destCountry) {
			withDC = append(withDC, p)
			weights = append(weights, p.BaseShare)
		}
	}
	if len(withDC) == 0 {
		if len(n.localAS[destCountry]) > 0 {
			return n.LocalHostFor(destCountry, r)
		}
		// Fall back to any global provider's nearest DC.
		return n.ProviderHostAt(n.Providers[0], destCountry, r)
	}
	p := withDC[rng.Pick(r, weights)]
	return n.ProviderHostAt(p, destCountry, r)
}

func providerSlug(p *Provider) string {
	return strings.ReplaceAll(p.Key, "-", "")
}

// zipfPick draws an index in [0, n) with probability ∝ 1/(i+1)^alpha.
func zipfPick(r *rand.Rand, n int, alpha float64) int {
	if n <= 1 {
		return 0
	}
	var total float64
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -alpha)
	}
	x := r.Float64() * total
	for i := 0; i < n; i++ {
		x -= math.Pow(float64(i+1), -alpha)
		if x < 0 {
			return i
		}
	}
	return n - 1
}

// EgressHostFor creates a dedicated, always-ICMP-responsive client
// address inside the country on a local provider network — the VPN
// egress a vantage point binds to. It is never pooled with serving
// hosts.
func (n *Net) EgressHostFor(country string, r *rand.Rand) *Host {
	list := n.localAS[country]
	if len(list) == 0 {
		panic("netsim: no local provider AS for egress in " + country)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	h := n.newHost(list[r.Intn(len(list))], country, false, nil, r)
	h.ICMP = true
	return h
}

// CorpAS returns (creating on first use) the self-hosting corporate
// autonomous system for a brand — the "google.com serves itself" case
// the Appendix D self-hosting heuristic detects on top sites.
func (n *Net) CorpAS(name, home string) *AS {
	n.mu.Lock()
	defer n.mu.Unlock()
	if as, ok := n.corpAS[name]; ok {
		return as
	}
	as := &AS{
		ASN:        n.allocASN(),
		Name:       strings.ToUpper(strings.ReplaceAll(name, " ", "-")),
		Org:        name + " Inc.",
		RegCountry: home,
		Kind:       KindLocal,
		Website:    "https://www." + strings.ToLower(strings.ReplaceAll(name, " ", "")) + ".com",
		PeeringDB:  true,
	}
	n.register(as)
	n.corpAS[name] = as
	n.Search[as.Org] = SearchResult{Website: as.Website,
		Snippet: name + " operates its own serving infrastructure."}
	return as
}

// CorpHostAt returns a pooled host of a corporate AS located in the
// given country (an on-net edge or origin).
func (n *Net) CorpHostAt(as *AS, country string, r *rand.Rand) *Host {
	key := fmt.Sprintf("corp|%d|%s", as.ASN, country)
	return n.poolPick(key, r, func() *Host { return n.newHost(as, country, false, nil, r) })
}
