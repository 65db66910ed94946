package dnswire

import (
	"context"
	"fmt"
	"math"
	"net/netip"
	"time"
)

// Result is a completed A lookup.
type Result struct {
	Name  string
	Addr  netip.Addr
	Chain []string      // CNAME targets traversed, in order
	TTL   time.Duration // smallest TTL along the chain
}

// NXDomainError reports a name that does not exist.
type NXDomainError struct{ Name string }

func (e *NXDomainError) Error() string { return fmt.Sprintf("dnswire: NXDOMAIN %s", e.Name) }

// LookupA resolves name to an IPv4 address with one query to the DNS
// server at server ("host:port"), following the CNAME chain in the
// answer section. A name that does not exist fails with
// *NXDomainError; any other non-success answer is an error as well.
// Nothing is cached or retried.
func LookupA(ctx context.Context, server, name string) (Result, error) {
	name = CanonicalName(name)
	resp, err := Exchange(ctx, server, NewQuery(1, name, TypeA))
	if err != nil {
		return Result{Name: name}, err
	}
	switch resp.Header.RCode {
	case RCodeSuccess:
		return extract(name, resp)
	case RCodeNXDomain:
		return Result{Name: name}, &NXDomainError{Name: name}
	}
	return Result{Name: name}, fmt.Errorf("dnswire: upstream returned %v for %s", resp.Header.RCode, name)
}

// extract walks the answer section: CNAME hops from the query name to
// the terminal A record.
func extract(name string, resp *Message) (Result, error) {
	res := Result{Name: name}
	ttl := uint32(math.MaxUint32)
	cur := name
	byName := map[string][]RR{}
	for _, rr := range resp.Answers {
		byName[CanonicalName(rr.Name)] = append(byName[CanonicalName(rr.Name)], rr)
	}
	for hop := 0; hop < 8; hop++ {
		for _, rr := range byName[cur] {
			switch rr.Type {
			case TypeA:
				res.Addr = rr.A
				res.TTL = time.Duration(min(ttl, rr.TTL)) * time.Second
				return res, nil
			case TypeCNAME:
				res.Chain = append(res.Chain, rr.Target)
				ttl = min(ttl, rr.TTL)
			}
		}
		if len(res.Chain) <= hop {
			break // no further hop available
		}
		cur = CanonicalName(res.Chain[hop])
	}
	return res, fmt.Errorf("dnswire: no A record for %s in answer", name)
}
