package netsim

import (
	"net/netip"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/world"
)

func buildNet(t testing.TB) *Net {
	t.Helper()
	return Build(world.New(), 42)
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(world.New(), 42)
	b := Build(world.New(), 42)
	if len(a.ASList) != len(b.ASList) {
		t.Fatalf("AS counts differ: %d vs %d", len(a.ASList), len(b.ASList))
	}
	for i := range a.ASList {
		x, y := a.ASList[i], b.ASList[i]
		if x.ASN != y.ASN || x.Org != y.Org || x.RegCountry != y.RegCountry {
			t.Fatalf("AS %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestASNsUnique(t *testing.T) {
	n := buildNet(t)
	seen := map[int]bool{}
	for _, as := range n.ASList {
		if seen[as.ASN] {
			t.Fatalf("duplicate ASN %d", as.ASN)
		}
		seen[as.ASN] = true
	}
}

func TestFlavourASNs(t *testing.T) {
	n := buildNet(t)
	cases := []struct {
		asn  int
		org  string
		kind ASKind
		reg  string
	}{
		{26810, "U.S. Dept. of Health and Human Services", KindGovernment, "US"},
		{6057, "Administracion Nacional de Telecomunicaciones", KindSOE, "UY"},
		{27655, "Yacimientos Petroliferos Fiscales", KindSOE, "AR"},
		{18200, "Office des Postes et des Telecomm de Nouvelle Caledonie", KindSOE, "NC"},
	}
	for _, tc := range cases {
		as := n.ASes[tc.asn]
		if as == nil {
			t.Errorf("AS%d missing", tc.asn)
			continue
		}
		if as.Org != tc.org || as.Kind != tc.kind || as.RegCountry != tc.reg {
			t.Errorf("AS%d = %+v", tc.asn, as)
		}
	}
}

func TestProviderCatalogue(t *testing.T) {
	cat := Catalogue()
	if len(cat) != 28 {
		t.Fatalf("catalogue has %d providers, want 28 (Fig. 10)", len(cat))
	}
	keys := map[string]bool{}
	asns := map[int]bool{}
	for _, p := range cat {
		if keys[p.Key] || asns[p.ASN] {
			t.Fatalf("duplicate provider %s/%d", p.Key, p.ASN)
		}
		keys[p.Key] = true
		asns[p.ASN] = true
		if p.BaseShare <= 0 || p.Adoption <= 0 {
			t.Errorf("%s: non-positive share/adoption", p.Key)
		}
	}
	if cat[0].Key != "cloudflare" || cat[0].ASN != 13335 {
		t.Fatal("Cloudflare must lead the catalogue")
	}
}

func TestAdoptionSpansContinents(t *testing.T) {
	n := buildNet(t)
	w := n.World
	// Every provider must be adopted by countries on at least two
	// continents, or the span classifier would call it Regional.
	usage := map[string]map[string]bool{}
	for _, c := range w.Panel() {
		for _, p := range n.AdoptedProviders(c.Code) {
			if usage[p.Key] == nil {
				usage[p.Key] = map[string]bool{}
			}
			usage[p.Key][c.Region.Continent()] = true
		}
	}
	for _, p := range n.Providers {
		if len(usage[p.Key]) < 2 {
			t.Errorf("%s adopted on %d continents, want ≥ 2", p.Key, len(usage[p.Key]))
		}
	}
}

func TestCloudflareAdoptionLeads(t *testing.T) {
	n := buildNet(t)
	counts := map[string]int{}
	for _, c := range n.World.Panel() {
		for _, p := range n.AdoptedProviders(c.Code) {
			counts[p.Key]++
		}
	}
	if counts["cloudflare"] < 40 {
		t.Errorf("cloudflare adopted by %d countries, want ≈49", counts["cloudflare"])
	}
	if counts["cloudflare"] <= counts["microsoft"] {
		t.Errorf("cloudflare (%d) must lead microsoft (%d)", counts["cloudflare"], counts["microsoft"])
	}
}

func TestAllocatedPrefixesCoverHosts(t *testing.T) {
	n := buildNet(t)
	r := rng.New(2, "alloc")
	h := n.GovHostFor("CL", false, "CL", r)
	found := false
	for _, ap := range n.AllocatedPrefixes() {
		if ap.Prefix.Contains(h.Addr) {
			found = true
			if ap.AS != h.AS {
				t.Fatalf("prefix %v owned by %v, host on %v", ap.Prefix, ap.AS.ASN, h.AS.ASN)
			}
		}
	}
	if !found {
		t.Fatal("host address not covered by any allocated prefix")
	}
}

func TestHostKindsAndLocations(t *testing.T) {
	n := buildNet(t)
	r := rng.New(3, "kinds")
	gov := n.GovHostFor("BR", false, "BR", r)
	govtOrSOE := func(a *AS) bool { return a.Kind == KindGovernment || a.Kind == KindSOE }
	if !govtOrSOE(gov.AS) || gov.Country != "BR" {
		t.Errorf("gov host wrong: %+v", gov.AS)
	}
	soe := n.GovHostFor("BR", true, "BR", r)
	if !govtOrSOE(soe.AS) {
		t.Errorf("SOE host not government-owned: %+v", soe.AS)
	}
	local := n.LocalHostFor("BR", r)
	if local.AS.Kind != KindLocal || local.AS.RegCountry != "BR" {
		t.Errorf("local host wrong: %+v", local.AS)
	}
	reg := n.RegionalHostFor(n.World.MustCountry("PY"), r)
	if reg.AS.Kind == KindLocal && reg.AS.RegCountry == "PY" {
		t.Errorf("regional host must not be a domestic provider: %+v", reg.AS)
	}
}

func TestAnycastProviderHost(t *testing.T) {
	n := buildNet(t)
	r := rng.New(4, "anycast")
	cf := n.Provider("cloudflare")
	h := n.ProviderHostFor(cf, "DE", r)
	if !h.Anycast {
		t.Fatal("cloudflare host must be anycast")
	}
	if h.Country != "" {
		t.Fatal("anycast hosts carry no fixed country")
	}
	site := n.AnycastSiteFor("cloudflare", "DE")
	if site == "" {
		t.Fatal("anycast site resolution failed")
	}
	if n.HasAnycastPresence("cloudflare", "DE") && site != "DE" {
		t.Fatalf("in-country presence must win: site=%s", site)
	}
}

func TestUnicastProviderPlacement(t *testing.T) {
	n := buildNet(t)
	r := rng.New(5, "unicast")
	hz := n.Provider("hetzner")
	h := n.ProviderHostAt(hz, "DE", r)
	if h.Country != "DE" {
		t.Fatalf("hetzner has a German DC; host placed in %s", h.Country)
	}
	// No DC in Chile: nearest DC applies.
	h2 := n.ProviderHostAt(hz, "CL", r)
	if h2.Country == "CL" {
		t.Fatalf("hetzner has no Chilean DC; host placed in %s", h2.Country)
	}
}

func TestPoolReuse(t *testing.T) {
	n := buildNet(t)
	r := rng.New(6, "reuse")
	addrs := map[netip.Addr]bool{}
	const draws = 200
	for i := 0; i < draws; i++ {
		addrs[n.LocalHostFor("EE", r).Addr] = true
	}
	// With ~68 % reuse the distinct-address count must sit well below
	// the draw count (the paper observes ~3 hostnames per address).
	if len(addrs) > draws*2/3 {
		t.Fatalf("%d distinct addresses from %d draws; pooling broken", len(addrs), draws)
	}
	if len(addrs) < 5 {
		t.Fatalf("pooling too aggressive: %d distinct addresses", len(addrs))
	}
}

func TestEgressAlwaysResponsive(t *testing.T) {
	n := buildNet(t)
	r := rng.New(7, "egress")
	for i := 0; i < 20; i++ {
		h := n.EgressHostFor("PK", r)
		if !h.ICMP {
			t.Fatal("VPN egress must answer pings (vantage validation depends on it)")
		}
		if h.Country != "PK" {
			t.Fatalf("egress in %s, want PK", h.Country)
		}
	}
}

func TestPingBehaviour(t *testing.T) {
	n := buildNet(t)
	r := rng.New(8, "ping")
	// Find a responsive domestic host.
	var h *Host
	for i := 0; i < 50; i++ {
		cand := n.LocalHostFor("DE", r)
		if cand.ICMP {
			h = cand
			break
		}
	}
	if h == nil {
		t.Skip("no responsive host found")
	}
	rtt, ok := n.MinPingFrom("DE", h.Addr, 3, 0)
	if !ok {
		t.Fatal("responsive host did not answer")
	}
	far, ok2 := n.MinPingFrom("AU", h.Addr, 3, 0)
	if !ok2 {
		t.Fatal("ping from Australia failed")
	}
	if far <= rtt {
		t.Fatalf("German host must be farther from Australia: domestic %.1f ms, AU %.1f ms", rtt, far)
	}
	if far < 100 {
		t.Fatalf("Germany-Australia RTT %.1f ms implausibly low", far)
	}
}

func TestMinPingIsMinimum(t *testing.T) {
	n := buildNet(t)
	r := rng.New(9, "minping")
	var h *Host
	for i := 0; i < 50; i++ {
		cand := n.LocalHostFor("FR", r)
		if cand.ICMP {
			h = cand
			break
		}
	}
	if h == nil {
		t.Skip("no responsive host")
	}
	minRTT, _ := n.MinPingFrom("FR", h.Addr, 5, 0)
	for i := 0; i < 5; i++ {
		rtt, ok := n.Ping("FR", h.Addr, i)
		if !ok {
			t.Fatal("ping failed")
		}
		if rtt < minRTT {
			t.Fatalf("attempt %d RTT %.3f below reported minimum %.3f", i, rtt, minRTT)
		}
	}
}

func TestPingDeterministic(t *testing.T) {
	n := buildNet(t)
	r := rng.New(10, "det")
	h := n.EgressHostFor("IT", r)
	a, _ := n.Ping("IT", h.Addr, 1)
	b, _ := n.Ping("IT", h.Addr, 1)
	if a != b {
		t.Fatalf("same attempt must yield the same RTT: %.4f vs %.4f", a, b)
	}
}

func TestUnresponsiveHostDoesNotAnswer(t *testing.T) {
	n := buildNet(t)
	r := rng.New(11, "unresp")
	for i := 0; i < 200; i++ {
		h := n.GovHostFor("IN", false, "IN", r)
		if !h.ICMP {
			if _, ok := n.Ping("IN", h.Addr, 0); ok {
				t.Fatal("ICMP-silent host answered a ping")
			}
			return
		}
	}
	t.Skip("all sampled hosts responsive")
}

func TestZipfPickBoundsQuick(t *testing.T) {
	r := rng.New(12, "zipf")
	f := func(n uint8, alphaQ uint8) bool {
		size := int(n%20) + 1
		alpha := float64(alphaQ%30) / 10.0
		idx := zipfPick(r, size, alpha)
		return idx >= 0 && idx < size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfConcentration(t *testing.T) {
	r := rng.New(13, "zipf-conc")
	first := 0
	const draws = 5000
	for i := 0; i < draws; i++ {
		if zipfPick(r, 10, 2.0) == 0 {
			first++
		}
	}
	share := float64(first) / draws
	if share < 0.5 {
		t.Fatalf("alpha=2 over 10 items: first index share %.2f, want > 0.5", share)
	}
}

func TestPTRNamesCarryCountryHints(t *testing.T) {
	n := buildNet(t)
	informative := 0
	total := 0
	for _, h := range n.HostList {
		if h.Anycast || h.PTR == "" {
			continue
		}
		total++
		if len(h.PTR) > 8 {
			informative++
		}
	}
	if total == 0 {
		t.Skip("no PTR records generated yet (hosts are created lazily)")
	}
}

func TestCorpAS(t *testing.T) {
	n := buildNet(t)
	a := n.CorpAS("SearchCo", "US")
	b := n.CorpAS("SearchCo", "US")
	if a != b {
		t.Fatal("CorpAS must cache by brand")
	}
	if a.RegCountry != "US" {
		t.Fatalf("corp AS registered in %s, want US", a.RegCountry)
	}
	r := rng.New(14, "corp")
	h := n.CorpHostAt(a, "CL", r)
	if h.Country != "CL" || h.AS != a {
		t.Fatalf("corp host misplaced: %+v", h)
	}
}

func TestProvidersWithDC(t *testing.T) {
	n := buildNet(t)
	for _, p := range n.ProvidersWithDC("DE") {
		if p.Anycast {
			t.Errorf("%s is anycast; must not be in the unicast DC list", p.Key)
		}
		if !p.HasDC("DE") {
			t.Errorf("%s listed without a German DC", p.Key)
		}
	}
	if len(n.ProvidersWithDC("DE")) == 0 {
		t.Fatal("Germany must host unicast provider DCs")
	}
}

// TestNearestDC: a provider's placement falls back to its data centre
// closest to the country (ProviderHostFor, ProviderHostAt).
func TestNearestDC(t *testing.T) {
	n := buildNet(t)
	hz := n.Provider("hetzner") // DCs: DE, FI, US
	if got := n.nearestDC(hz, "DE"); got != "DE" {
		t.Errorf("nearestDC from DE = %s", got)
	}
	if got := n.nearestDC(hz, "PL"); got != "DE" {
		t.Errorf("nearestDC from PL = %s, want DE", got)
	}
	if got := n.nearestDC(hz, "MX"); got != "US" {
		t.Errorf("nearestDC from MX = %s, want US", got)
	}
}

// TestConcurrentHostCreationAndPing hammers lazy host creation from
// many goroutines while others ping — the exact interleaving the
// pipeline produces (VPN egress creation during measurement). Run
// under -race this guards the Net locking.
func TestConcurrentHostCreationAndPing(t *testing.T) {
	n := buildNet(t)
	var wg sync.WaitGroup
	countries := []string{"DE", "FR", "JP", "US", "BR", "IN", "PL", "UY"}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(int64(w), "stress")
			for i := 0; i < 50; i++ {
				c := countries[(w+i)%len(countries)]
				var h *Host
				switch i % 4 {
				case 0:
					h = n.LocalHostFor(c, r)
				case 1:
					h = n.GovHostFor(c, false, c, r)
				case 2:
					h = n.EgressHostFor(c, r)
				default:
					h = n.ProviderHostFor(n.Providers[i%len(n.Providers)], c, r)
				}
				n.Ping(c, h.Addr, i)
				n.Host(h.Addr)
			}
		}(w)
	}
	wg.Wait()
}

func TestAllocatedPrefixesDisjoint(t *testing.T) {
	n := buildNet(t)
	seen := map[string]bool{}
	for _, ap := range n.AllocatedPrefixes() {
		key := ap.Prefix.String()
		if seen[key] {
			t.Fatalf("prefix %s allocated twice", key)
		}
		seen[key] = true
		if ap.Prefix.Bits() != 16 {
			t.Fatalf("prefix %s is not a /16", key)
		}
	}
}
