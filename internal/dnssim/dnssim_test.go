package dnssim

import (
	"bytes"
	"context"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/webgen"
	"repro/internal/world"
)

func buildZones(t testing.TB) (*Zones, *webgen.Estate) {
	t.Helper()
	w := world.New()
	net := netsim.Build(w, 42)
	profiles := world.BuildProfiles(w, 42)
	estate := webgen.Build(w, net, profiles, 42, 0.02)
	return Build(estate, net), estate
}

func TestResolveGovernmentHostname(t *testing.T) {
	z, estate := buildZones(t)
	sites := estate.GovSites("UY")
	if len(sites) == 0 {
		t.Fatal("no Uruguayan sites generated")
	}
	res, err := z.Resolve(sites[0].Host)
	if err != nil {
		t.Fatal(err)
	}
	if res.Addr != sites[0].Endpoint.Addr {
		t.Fatalf("resolved %v, want %v", res.Addr, sites[0].Endpoint.Addr)
	}
}

func TestResolveWWWAlias(t *testing.T) {
	z, estate := buildZones(t)
	for _, s := range estate.GovSites("CL") {
		if s.Cert == nil {
			continue
		}
		res, err := z.Resolve("www." + s.Host)
		if err != nil {
			t.Fatalf("www alias of %s: %v", s.Host, err)
		}
		if len(res.Chain) == 0 {
			t.Fatal("www alias must resolve through a CNAME")
		}
		return
	}
	t.Skip("no landing site with certificate")
}

func TestResolveTopsiteCNAMEChain(t *testing.T) {
	z, estate := buildZones(t)
	// Every CNAME-fronted topsite, not a map-order-dependent sample:
	// shared CNAME targets once aliased one country's endpoint over
	// another's, and only some iteration orders surfaced it.
	checked := 0
	for _, sites := range estate.Topsites {
		for _, s := range sites {
			if s.CNAME == "" {
				continue
			}
			checked++
			res, err := z.Resolve(s.Host)
			if err != nil {
				t.Fatalf("resolve %s: %v", s.Host, err)
			}
			if len(res.Chain) == 0 || res.Chain[0] != s.CNAME {
				t.Fatalf("CNAME chain for %s = %v, want first hop %s", s.Host, res.Chain, s.CNAME)
			}
			if res.Addr != s.Endpoint.Addr {
				t.Fatalf("chain endpoint %v for %s, want the site endpoint %v", res.Addr, s.Host, s.Endpoint.Addr)
			}
		}
	}
	if checked == 0 {
		t.Skip("no CNAME-fronted topsite in sample")
	}
}

func TestResolveNXDomain(t *testing.T) {
	z, _ := buildZones(t)
	if _, err := z.Resolve("no-such-host.invalid"); err == nil {
		t.Fatal("unknown hostname must fail")
	}
}

func TestCNAMEChainLoopProtection(t *testing.T) {
	z := &Zones{cname: map[string]string{"a.test": "b.test", "b.test": "a.test"},
		a: map[string]netip.Addr{}, ptr: map[netip.Addr]string{}}
	if _, err := z.Resolve("a.test"); err == nil {
		t.Fatal("CNAME loop must be rejected")
	}
}

func TestReverseNameRoundTripQuick(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		addr := netip.AddrFrom4([4]byte{a, b, c, d})
		got, ok := parseReverse(reverseName(addr))
		return ok && got == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseReverseRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "example.com.", "1.2.3.in-addr.arpa.", "x.2.3.4.in-addr.arpa.", "300.2.3.4.in-addr.arpa."} {
		if _, ok := parseReverse(s); ok {
			t.Errorf("parseReverse(%q) accepted", s)
		}
	}
}

func TestPTRLookup(t *testing.T) {
	z, estate := buildZones(t)
	found := false
	for _, s := range estate.GovSites("DE") {
		if ptr := z.PTR(s.Endpoint.Addr); ptr != "" {
			found = true
			break
		}
	}
	if !found {
		t.Skip("no PTR on sampled German endpoints")
	}
}

// TestHandlerOverUDP exercises the full wire path: the authoritative
// handler behind a real UDP server, queried with the dnswire client.
func TestHandlerOverUDP(t *testing.T) {
	z, estate := buildZones(t)
	srv := &dnswire.Server{Handler: z.Handler()}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	site := estate.GovSites("JP")[0]
	resp, err := dnswire.Exchange(ctx, addr, dnswire.NewQuery(7, site.Host, dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeSuccess {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	var got netip.Addr
	for _, rr := range resp.Answers {
		if rr.Type == dnswire.TypeA {
			got = rr.A
		}
	}
	if got != site.Endpoint.Addr {
		t.Fatalf("A record %v, want %v", got, site.Endpoint.Addr)
	}

	// NXDOMAIN for unknown names.
	resp, err = dnswire.Exchange(ctx, addr, dnswire.NewQuery(8, "missing.example", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v, want NXDOMAIN", resp.Header.RCode)
	}

	// PTR over the wire.
	ptrName := ""
	var ptrAddr netip.Addr
	for _, s := range estate.GovSites("JP") {
		if p := z.PTR(s.Endpoint.Addr); p != "" {
			ptrName, ptrAddr = p, s.Endpoint.Addr
			break
		}
	}
	if ptrName != "" {
		resp, err = dnswire.Exchange(ctx, addr, dnswire.NewQuery(9, reverseName(ptrAddr), dnswire.TypePTR))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) != 1 || resp.Answers[0].Target != dnswire.CanonicalName(ptrName) {
			t.Fatalf("PTR answer = %+v, want %s", resp.Answers, ptrName)
		}
	}

	// Unsupported query types are refused gracefully.
	resp, err = dnswire.Exchange(ctx, addr, dnswire.NewQuery(10, site.Host, dnswire.TypeTXT))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNotImp {
		t.Fatalf("TXT rcode = %v, want NOTIMP", resp.Header.RCode)
	}
}

func TestZoneFileRoundTrip(t *testing.T) {
	z, estate := buildZones(t)
	var buf bytes.Buffer
	if err := z.WriteZoneFile(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := parseZoneFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Every site must resolve identically through the reloaded zones.
	checked := 0
	for _, s := range estate.SiteList {
		orig, err1 := z.Resolve(s.Host)
		again, err2 := reloaded.Resolve(s.Host)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("resolution divergence for %s: %v vs %v", s.Host, err1, err2)
		}
		if err1 == nil && orig.Addr != again.Addr {
			t.Fatalf("%s resolves to %v, reloaded %v", s.Host, orig.Addr, again.Addr)
		}
		checked++
		if checked > 400 {
			break
		}
	}
	// PTR data round trips too.
	for addr, ptr := range z.ptr {
		if reloaded.PTR(addr) != ptr {
			t.Fatalf("PTR for %v lost: %q vs %q", addr, ptr, reloaded.PTR(addr))
		}
		break
	}
}

func TestParseZoneFileRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"wrong fields":  "name 300 IN A\n",
		"bad ttl":       "name.example. x IN A 1.2.3.4\n",
		"bad class":     "name.example. 300 CH A 1.2.3.4\n",
		"bad type":      "name.example. 300 IN MX mail.example.\n",
		"bad address":   "name.example. 300 IN A not-an-ip\n",
		"bad ptr owner": "name.example. 300 IN PTR target.example.\n",
	}
	for name, in := range cases {
		if _, err := parseZoneFile(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Comments and blank lines are fine.
	z, err := parseZoneFile(strings.NewReader("; comment\n\nx.example. 60 IN A 192.0.2.1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := z.Resolve("x.example"); err != nil || res.Addr != netip.MustParseAddr("192.0.2.1") {
		t.Fatalf("parsed zone does not resolve: %v %v", res, err)
	}
}
