// Package dnssim builds the authoritative DNS view of the synthetic
// web: A records for every site (behind CNAME chains where the site
// fronts with a provider or a self-hosted edge), and PTR records for
// every allocated address. It resolves queries directly for the
// full-scale pipeline and exposes a dnswire.Handler so integration
// tests and examples can resolve over real UDP/TCP sockets.
package dnssim

import (
	"fmt"
	"net"
	"net/netip"
	"strings"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/webgen"
)

// Result is a completed resolution.
type Result struct {
	Host  string
	Chain []string // CNAME chain, excluding the queried name
	Addr  netip.Addr
}

// Zones is the authoritative database.
type Zones struct {
	cname  map[string]string     // hostname → canonical name
	a      map[string]netip.Addr // hostname → address
	ptr    map[netip.Addr]string // address → PTR name
	estate *webgen.Estate
}

// Build derives zones from the estate and the network.
func Build(e *webgen.Estate, n *netsim.Net) *Zones {
	z := &Zones{
		cname:  make(map[string]string),
		a:      make(map[string]netip.Addr),
		ptr:    make(map[netip.Addr]string),
		estate: e,
	}
	for _, s := range e.SiteList {
		if s.CNAME != "" {
			z.cname[s.Host] = s.CNAME
			z.a[s.CNAME] = s.Endpoint.Addr
		} else {
			z.a[s.Host] = s.Endpoint.Addr
		}
		// www. aliases for landing sites point at the apex. Landing,
		// unlike Cert, is set before the country's pages are built.
		if len(s.Landing) > 0 {
			z.cname["www."+s.Host] = s.Host
		}
	}
	for _, h := range n.HostList {
		if h.PTR != "" {
			z.ptr[h.Addr] = h.PTR
		}
	}
	return z
}

// Resolve follows the CNAME chain for host and returns the final
// address. The chain depth is capped defensively.
func (z *Zones) Resolve(host string) (Result, error) {
	res := Result{Host: host}
	cur := strings.TrimSuffix(strings.ToLower(host), ".")
	for depth := 0; depth < 8; depth++ {
		if addr, ok := z.a[cur]; ok {
			res.Addr = addr
			return res, nil
		}
		next, ok := z.cname[cur]
		if !ok {
			return res, fmt.Errorf("dnssim: NXDOMAIN %q", host)
		}
		res.Chain = append(res.Chain, next)
		cur = next
	}
	return res, fmt.Errorf("dnssim: CNAME chain too deep for %q", host)
}

// CNAMEOf returns the direct canonical name of host, if any.
func (z *Zones) CNAMEOf(host string) (string, bool) {
	t, ok := z.cname[strings.TrimSuffix(strings.ToLower(host), ".")]
	return t, ok
}

// PTR returns the reverse name for an address, or "".
func (z *Zones) PTR(addr netip.Addr) string { return z.ptr[addr] }

// reverseName builds the in-addr.arpa name for an IPv4 address.
func reverseName(addr netip.Addr) string {
	b := addr.As4()
	return fmt.Sprintf("%d.%d.%d.%d.in-addr.arpa.", b[3], b[2], b[1], b[0])
}

// parseReverse parses an in-addr.arpa name back to an address.
func parseReverse(name string) (netip.Addr, bool) {
	name = strings.TrimSuffix(strings.ToLower(name), ".")
	const suffix = ".in-addr.arpa"
	if !strings.HasSuffix(name, suffix) {
		return netip.Addr{}, false
	}
	parts := strings.Split(strings.TrimSuffix(name, suffix), ".")
	if len(parts) != 4 {
		return netip.Addr{}, false
	}
	var b [4]byte
	for i, p := range parts {
		var v int
		if _, err := fmt.Sscanf(p, "%d", &v); err != nil || v < 0 || v > 255 {
			return netip.Addr{}, false
		}
		b[3-i] = byte(v)
	}
	return netip.AddrFrom4(b), true
}

// Handler returns a dnswire handler serving these zones
// authoritatively: A queries walk the CNAME chain (answering with the
// chain plus the terminal A record, as real authoritative-ish
// recursors do), PTR queries consult the reverse zone.
func (z *Zones) Handler() dnswire.Handler {
	return dnswire.HandlerFunc(func(q *dnswire.Message, remote net.Addr) *dnswire.Message {
		resp := q.Reply()
		if len(q.Questions) != 1 {
			resp.Header.RCode = dnswire.RCodeFormat
			return resp
		}
		question := q.Questions[0]
		name := strings.TrimSuffix(strings.ToLower(question.Name), ".")
		switch question.Type {
		case dnswire.TypeA:
			res, err := z.Resolve(name)
			if err != nil {
				resp.Header.RCode = dnswire.RCodeNXDomain
				return resp
			}
			prev := question.Name
			for _, c := range res.Chain {
				resp.Answers = append(resp.Answers, dnswire.RR{
					Name: prev, Type: dnswire.TypeCNAME, Class: dnswire.ClassIN,
					TTL: 300, Target: dnswire.CanonicalName(c),
				})
				prev = dnswire.CanonicalName(c)
			}
			resp.Answers = append(resp.Answers, dnswire.RR{
				Name: prev, Type: dnswire.TypeA, Class: dnswire.ClassIN,
				TTL: 60, A: res.Addr,
			})
		case dnswire.TypePTR:
			addr, ok := parseReverse(question.Name)
			if !ok {
				resp.Header.RCode = dnswire.RCodeFormat
				return resp
			}
			ptr := z.PTR(addr)
			if ptr == "" {
				resp.Header.RCode = dnswire.RCodeNXDomain
				return resp
			}
			resp.Answers = append(resp.Answers, dnswire.RR{
				Name: question.Name, Type: dnswire.TypePTR, Class: dnswire.ClassIN,
				TTL: 300, Target: dnswire.CanonicalName(ptr),
			})
		default:
			resp.Header.RCode = dnswire.RCodeNotImp
		}
		return resp
	})
}
