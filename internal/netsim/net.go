// Package netsim materialises the synthetic Internet underneath the
// study: autonomous systems with WHOIS/PeeringDB metadata, IPv4
// address space, global-provider footprints (anycast sites and unicast
// data centres), a geographic latency model, and PTR naming. The
// measurement pipeline observes this world only through the same
// interfaces the paper used (DNS, WHOIS, pings, geolocation
// databases); ground truth stays inside this package.
package netsim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"sync"

	"repro/internal/naming"
	"repro/internal/rng"
	"repro/internal/world"
)

// baseIP is the first address of the simulated allocation space; each
// AS receives /16 blocks starting here.
var baseIP = netip.AddrFrom4([4]byte{16, 0, 0, 0})

// SearchResult is what the simulated web search (§3.4, last resort of
// the government-AS classifier) returns for an organization.
type SearchResult struct {
	Website string
	Snippet string
}

// Net is the synthetic Internet. Build populates it single-threaded;
// afterwards hosts are created lazily (pools, VPN egresses, corporate
// ASes) while measurement goroutines read concurrently, so the mutable
// tables are guarded by mu. Host structs themselves are immutable once
// inserted.
type Net struct {
	World *world.Model
	Seed  int64

	mu sync.RWMutex // guards hosts, HostList, pool, blockToAS, asBlocks, ipNext, corpAS

	ASes   map[int]*AS
	ASList []*AS

	Providers     []*Provider
	providerByKey map[string]*Provider
	providerAS    map[string]*AS

	adopted  map[string][]*Provider     // country → adopted global providers
	presence map[string]map[string]bool // provider key → country set with anycast sites
	govAS    map[string][]*AS
	soeAS    map[string][]*AS
	localAS  map[string][]*AS
	regional map[world.Region][]*AS

	hosts    map[netip.Addr]*Host
	HostList []*Host
	pool     map[string][]*Host

	blockToAS []*AS          // block index → owning AS
	asBlocks  map[int][]int  // ASN → block indexes
	ipNext    map[int]uint32 // ASN → next offset within current block

	Search map[string]SearchResult // organization name → search result

	corpAS  map[string]*AS
	nextASN int
}

// Build constructs the synthetic Internet for the given world model
// and seed. The result is deterministic.
func Build(w *world.Model, seed int64) *Net {
	n := &Net{
		World:         w,
		Seed:          seed,
		ASes:          make(map[int]*AS),
		providerByKey: make(map[string]*Provider),
		providerAS:    make(map[string]*AS),
		adopted:       make(map[string][]*Provider),
		presence:      make(map[string]map[string]bool),
		govAS:         make(map[string][]*AS),
		soeAS:         make(map[string][]*AS),
		localAS:       make(map[string][]*AS),
		regional:      make(map[world.Region][]*AS),
		hosts:         make(map[netip.Addr]*Host),
		pool:          make(map[string][]*Host),
		asBlocks:      make(map[int][]int),
		ipNext:        make(map[int]uint32),
		Search:        make(map[string]SearchResult),
		corpAS:        make(map[string]*AS),
		nextASN:       210000,
	}
	n.buildProviders()
	n.buildCountryASes()
	n.buildRegionalProviders()
	n.computeAdoption()
	return n
}

func (n *Net) buildProviders() {
	n.Providers = Catalogue()
	for _, p := range n.Providers {
		n.providerByKey[p.Key] = p
		as := &AS{
			ASN:         p.ASN,
			Name:        strings.ToUpper(p.Key) + "NET",
			Org:         p.Name + ", Inc.",
			RegCountry:  p.Home,
			Kind:        KindGlobal,
			Website:     "https://www." + p.Key + ".com",
			PeeringDB:   true,
			ProviderKey: p.Key,
		}
		n.register(as)
		n.providerAS[p.Key] = as
		n.Search[as.Org] = SearchResult{Website: as.Website,
			Snippet: p.Name + " is a global cloud and content delivery provider."}
		if p.Anycast {
			r := rng.New(n.Seed, "presence/"+p.Key)
			set := make(map[string]bool)
			for _, c := range n.World.Panel() {
				if r.Float64() < p.AnycastProb {
					set[c.Code] = true
				}
			}
			// Every anycast provider keeps at least its home site.
			set[p.Home] = true
			n.presence[p.Key] = set
		}
	}
}

// flavourASNs pins a few real-world ASNs the paper mentions by name.
var flavourASNs = map[string]struct {
	asn  int
	kind ASKind
	org  string
	name string
}{
	"US": {26810, KindGovernment, "U.S. Dept. of Health and Human Services", "HHS-NET"},
	"UY": {6057, KindSOE, "Administracion Nacional de Telecomunicaciones", "ANTEL"},
	"AR": {27655, KindSOE, "Yacimientos Petroliferos Fiscales", "YPF"},
	"NC": {18200, KindSOE, "Office des Postes et des Telecomm de Nouvelle Caledonie", "OPT-NC"},
}

func (n *Net) buildCountryASes() {
	for _, c := range n.World.All() {
		r := rng.New(n.Seed, "ases/"+c.Code)
		if c.HostOnly {
			// Host-only countries contribute serving infrastructure
			// (local hosters; NC additionally its state-owned OPT).
			for i := 0; i < 2; i++ {
				n.addLocalAS(c, i, r)
			}
			if f, ok := flavourASNs[c.Code]; ok {
				n.addFlavourAS(c, f.asn, f.kind, f.org, f.name)
			}
			continue
		}
		nGov := clamp(2+c.Hostnames/100, 2, 20)
		nSOE := 1 + c.Hostnames/400
		if nSOE > 4 {
			nSOE = 4
		}
		nLocal := clamp(3+c.Hostnames/80, 3, 14)

		if f, ok := flavourASNs[c.Code]; ok {
			n.addFlavourAS(c, f.asn, f.kind, f.org, f.name)
		}
		bodies := append(append([]string{}, naming.Ministries...), naming.Agencies...)
		for i := 0; i < nGov; i++ {
			body := bodies[i%len(bodies)]
			opaque := r.Float64() < 0.2
			org := naming.GovOrg(c, body, opaque)
			site := "https://www." + naming.GovHost(c, body, len(c.GovSuffix) > 0)
			as := &AS{
				ASN:        n.allocASN(),
				Name:       strings.ToUpper(c.Code) + "-GOV-" + strings.ToUpper(shortSlug(body)),
				Org:        org,
				RegCountry: c.Code,
				Kind:       KindGovernment,
				Website:    site,
			}
			if len(c.GovSuffix) > 0 && r.Float64() < 0.8 {
				as.ContactEmail = "noc@" + c.GovSuffix[0]
			} else {
				as.ContactEmail = "noc@" + naming.GovHost(c, body, false)
			}
			if r.Float64() < 0.5 {
				as.PeeringDB = true
				as.PeeringNote = "Government network of " + c.Name
			}
			n.register(as)
			n.govAS[c.Code] = append(n.govAS[c.Code], as)
			n.Search[org] = SearchResult{Website: site,
				Snippet: "Official government agency of " + c.Name + "."}
		}
		for i := 0; i < nSOE; i++ {
			kind := naming.SOEs[i%len(naming.SOEs)]
			org := naming.SOEOrg(c, kind)
			site := "https://www." + naming.SOEHost(c, kind)
			as := &AS{
				ASN:        n.allocASN(),
				Name:       strings.ToUpper(c.Code) + "-" + strings.ToUpper(shortSlug(kind)),
				Org:        org,
				RegCountry: c.Code,
				Kind:       KindSOE,
				Website:    site,
				PeeringDB:  r.Float64() < 0.4,
			}
			if as.PeeringDB && r.Float64() < 0.6 {
				as.PeeringNote = "State-owned operator"
			}
			n.register(as)
			n.soeAS[c.Code] = append(n.soeAS[c.Code], as)
			n.Search[org] = SearchResult{Website: site,
				Snippet: "State-owned enterprise; the federal government of " + c.Name + " holds more than 50% of the shares."}
		}
		for i := 0; i < nLocal; i++ {
			n.addLocalAS(c, i, r)
		}
	}
}

func (n *Net) addLocalAS(c *world.Country, i int, r *rand.Rand) {
	org := naming.LocalProviderName(c, i)
	as := &AS{
		ASN:        n.allocASN(),
		Name:       strings.ToUpper(c.Code) + "-HOST-" + fmt.Sprint(i+1),
		Org:        org,
		RegCountry: c.Code,
		Kind:       KindLocal,
		Website:    "https://www." + naming.LocalProviderDomain(c, i),
		PeeringDB:  r.Float64() < 0.6,
	}
	n.register(as)
	n.localAS[c.Code] = append(n.localAS[c.Code], as)
	n.Search[org] = SearchResult{Website: as.Website,
		Snippet: "Commercial web hosting and data-centre services in " + c.Name + "."}
}

func (n *Net) addFlavourAS(c *world.Country, asn int, kind ASKind, org, name string) {
	as := &AS{
		ASN:        asn,
		Name:       name,
		Org:        org,
		RegCountry: c.Code,
		Kind:       kind,
		PeeringDB:  true,
	}
	if kind == KindGovernment {
		as.PeeringNote = org
	} else {
		as.PeeringNote = "State-owned operator"
	}
	n.register(as)
	switch kind {
	case KindGovernment:
		n.govAS[c.Code] = append(n.govAS[c.Code], as)
	case KindSOE:
		n.soeAS[c.Code] = append(n.soeAS[c.Code], as)
	}
	n.Search[org] = SearchResult{Website: as.Website,
		Snippet: "State-owned enterprise of " + c.Name + "."}
}

// buildRegionalProviders creates a handful of continent-scale hosters
// per region; they are registered in one country and serve neighbours.
func (n *Net) buildRegionalProviders() {
	homes := map[world.Region][]string{
		world.ECA: {"DE", "NL", "CZ"}, world.LAC: {"BR", "CL"},
		world.EAP: {"SG", "JP"}, world.MENA: {"AE"}, world.SSA: {"ZA"},
		world.SA: {"IN"}, world.NA: {"US"},
	}
	for _, region := range world.Regions {
		for i, code := range homes[region] {
			home := n.World.MustCountry(code)
			as := &AS{
				ASN:        n.allocASN(),
				Name:       strings.ToUpper(string(region)) + "-RCLOUD-" + fmt.Sprint(i+1),
				Org:        naming.RegionalProviderName(home, i),
				RegCountry: code,
				Kind:       KindRegional,
				Website:    fmt.Sprintf("https://www.rcloud%d-%s.com", i+1, strings.ToLower(string(region))),
				PeeringDB:  true,
			}
			n.register(as)
			n.regional[region] = append(n.regional[region], as)
			n.Search[as.Org] = SearchResult{Website: as.Website,
				Snippet: "Regional cloud provider operating across " + region.Name() + "."}
		}
	}
}

// computeAdoption decides which global providers each panel country
// uses (Fig. 10 calibration) and widens tail providers so every
// catalogue entry genuinely spans multiple continents.
func (n *Net) computeAdoption() {
	for _, p := range n.Providers {
		r := rng.New(n.Seed, "adopt/"+p.Key)
		var users []*world.Country
		for _, c := range n.World.Panel() {
			if c.Landing == 0 {
				continue
			}
			if r.Float64() < p.Adoption {
				users = append(users, c)
			}
		}
		// Guarantee a multi-continent footprint: without it, a
		// two-country tail provider would be measured as Regional.
		if len(users) < 2 {
			users = append(users, n.World.MustCountry("US"))
		}
		regions := map[world.Region]bool{}
		for _, c := range users {
			regions[c.Region] = true
		}
		if len(regions) < 2 {
			for _, code := range []string{"US", "DE", "SG"} {
				c := n.World.MustCountry(code)
				if !regions[c.Region] {
					users = append(users, c)
					break
				}
			}
		}
		for _, c := range users {
			n.adopted[c.Code] = append(n.adopted[c.Code], p)
		}
	}
}

// register adds the AS and allocates its first /16 block.
func (n *Net) register(a *AS) {
	if _, dup := n.ASes[a.ASN]; dup {
		panic(fmt.Sprintf("netsim: duplicate ASN %d", a.ASN))
	}
	n.ASes[a.ASN] = a
	n.ASList = append(n.ASList, a)
	n.allocBlock(a)
}

func (n *Net) allocBlock(a *AS) {
	idx := len(n.blockToAS)
	n.blockToAS = append(n.blockToAS, a)
	n.asBlocks[a.ASN] = append(n.asBlocks[a.ASN], idx)
	n.ipNext[a.ASN] = 1
}

func (n *Net) allocASN() int {
	n.nextASN++
	return n.nextASN
}

// allocIP hands out the next address of the AS's current block,
// growing into a fresh block when one fills up.
func (n *Net) allocIP(a *AS) netip.Addr {
	off := n.ipNext[a.ASN]
	if off >= 65534 {
		n.allocBlock(a)
		off = 1
	}
	blocks := n.asBlocks[a.ASN]
	block := blocks[len(blocks)-1]
	n.ipNext[a.ASN] = off + 1
	v := binary.BigEndian.Uint32(addrBytes(baseIP)) + uint32(block)*65536 + off
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}

func addrBytes(a netip.Addr) []byte {
	b := a.As4()
	return b[:]
}

// ASForAddr returns the AS owning the address, or nil — this is the
// ground-truth routing table the WHOIS/geolocation databases are
// derived from.
func (n *Net) ASForAddr(addr netip.Addr) *AS {
	if !addr.Is4() {
		return nil
	}
	v := binary.BigEndian.Uint32(addrBytes(addr))
	base := binary.BigEndian.Uint32(addrBytes(baseIP))
	if v < base {
		return nil
	}
	idx := int((v - base) / 65536)
	n.mu.RLock()
	defer n.mu.RUnlock()
	if idx >= len(n.blockToAS) {
		return nil
	}
	return n.blockToAS[idx]
}

// AllocatedPrefix is one /16 block and its owning AS.
type AllocatedPrefix struct {
	Prefix netip.Prefix
	AS     *AS
}

// AllocatedPrefixes returns every allocated block in allocation order;
// the WHOIS and geolocation databases are derived from this.
func (n *Net) AllocatedPrefixes() []AllocatedPrefix {
	n.mu.RLock()
	defer n.mu.RUnlock()
	base := binary.BigEndian.Uint32(addrBytes(baseIP))
	out := make([]AllocatedPrefix, 0, len(n.blockToAS))
	for i, as := range n.blockToAS {
		v := base + uint32(i)*65536
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], v)
		p, _ := netip.AddrFrom4(b).Prefix(16)
		out = append(out, AllocatedPrefix{Prefix: p, AS: as})
	}
	return out
}

// Provider returns the catalogue entry for key, or nil.
func (n *Net) Provider(key string) *Provider { return n.providerByKey[key] }

// AdoptedProviders returns the global providers a country's
// government uses, in catalogue order.
func (n *Net) AdoptedProviders(country string) []*Provider {
	return n.adopted[country]
}

// HasAnycastPresence reports whether the provider operates an anycast
// site inside the country.
func (n *Net) HasAnycastPresence(key, country string) bool {
	return n.presence[key][country]
}

// AnycastSites returns the sorted list of countries where the provider
// has anycast presence.
func (n *Net) AnycastSites(key string) []string {
	var out []string
	for c := range n.presence[key] {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func shortSlug(s string) string {
	s = strings.ReplaceAll(s, "-", "")
	if len(s) > 8 {
		s = s[:8]
	}
	return s
}
