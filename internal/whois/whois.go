// Package whois implements the public-registry lookup path of §3.4: a
// registry database derived from the synthetic Internet, an RFC 3912
// text-protocol server and client, and a response parser. The pipeline
// maps every server address to its AS number, organization and country
// of registration through this package.
package whois

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
)

// Record is the registration data for one address block.
type Record struct {
	Prefix     netip.Prefix
	NetName    string
	ASN        int
	Org        string
	Country    string // country of registration
	Email      string // technical contact
	PeeringURL string // org website, when published
}

// DB is an in-memory registry supporting longest-prefix lookup.
type DB struct {
	mu      sync.RWMutex
	records []Record // sorted by prefix address for deterministic output
}

// NewDB returns an empty registry.
func NewDB() *DB { return &DB{} }

// Add registers a record.
func (db *DB) Add(r Record) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.records = append(db.records, r)
}

// Sort finalises the database for deterministic iteration.
func (db *DB) Sort() {
	db.mu.Lock()
	defer db.mu.Unlock()
	sort.Slice(db.records, func(i, j int) bool {
		return db.records[i].Prefix.Addr().Less(db.records[j].Prefix.Addr())
	})
}

// Lookup returns the most specific record containing addr.
func (db *DB) Lookup(addr netip.Addr) (Record, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	best := -1
	bestBits := -1
	for i, r := range db.records {
		if r.Prefix.Contains(addr) && r.Prefix.Bits() > bestBits {
			best, bestBits = i, r.Prefix.Bits()
		}
	}
	if best < 0 {
		return Record{}, false
	}
	return db.records[best], true
}

// Len returns the number of records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.records)
}

// Render produces the RFC 3912-style text response for a record,
// following RIPE/ARIN conventions closely enough for the parser and
// for human eyes. The registry is IPv4-only: a record without an IPv4
// prefix renders without an inetnum line.
func Render(r Record) string {
	var b strings.Builder
	if r.Prefix.Addr().Is4() {
		fmt.Fprintf(&b, "inetnum:        %s - %s\n", r.Prefix.Addr(), lastAddr(r.Prefix))
	}
	fmt.Fprintf(&b, "netname:        %s\n", r.NetName)
	fmt.Fprintf(&b, "org-name:       %s\n", r.Org)
	fmt.Fprintf(&b, "country:        %s\n", r.Country)
	fmt.Fprintf(&b, "origin-as:      AS%d\n", r.ASN)
	if r.Email != "" {
		fmt.Fprintf(&b, "e-mail:         %s\n", r.Email)
	}
	if r.PeeringURL != "" {
		fmt.Fprintf(&b, "remarks:        %s\n", r.PeeringURL)
	}
	fmt.Fprintf(&b, "source:         GOVHOST-SIM\n")
	return b.String()
}

// Parse extracts a Record from a WHOIS text response; unknown keys are
// ignored, as real WHOIS output is full of registry-specific fields.
func Parse(text string) (Record, error) {
	var r Record
	sawAny := false
	for _, line := range strings.Split(text, "\n") {
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		value = strings.TrimSpace(value)
		switch strings.TrimSpace(key) {
		case "netname":
			r.NetName = value
			sawAny = true
		case "org-name", "OrgName", "organisation":
			r.Org = value
			sawAny = true
		case "country", "Country":
			r.Country = value
			sawAny = true
		case "origin-as", "OriginAS", "origin":
			var asn int
			if _, err := fmt.Sscanf(strings.TrimPrefix(value, "AS"), "%d", &asn); err == nil {
				r.ASN = asn
				sawAny = true
			}
		case "e-mail", "OrgTechEmail":
			r.Email = value
		case "remarks":
			if strings.HasPrefix(value, "http") {
				r.PeeringURL = value
			}
		case "inetnum", "NetRange":
			if p, err := parseRange(value); err == nil {
				r.Prefix = p
				sawAny = true
			}
		}
	}
	if !sawAny {
		return r, fmt.Errorf("whois: no parseable fields in response")
	}
	return r, nil
}

// parseRange reads an IPv4 block, as a "first - last" range or in CIDR
// notation, and returns it masked to its network address.
func parseRange(v string) (netip.Prefix, error) {
	firstStr, lastStr, ok := strings.Cut(v, "-")
	if !ok {
		p, err := netip.ParsePrefix(strings.TrimSpace(v))
		if err != nil {
			return netip.Prefix{}, err
		}
		if !p.Addr().Is4() {
			return netip.Prefix{}, fmt.Errorf("whois: %v is not an IPv4 block", p)
		}
		return p.Masked(), nil
	}
	first, err := netip.ParseAddr(strings.TrimSpace(firstStr))
	if err != nil {
		return netip.Prefix{}, err
	}
	last, err := netip.ParseAddr(strings.TrimSpace(lastStr))
	if err != nil {
		return netip.Prefix{}, err
	}
	if !first.Is4() || !last.Is4() || last.Less(first) {
		return netip.Prefix{}, fmt.Errorf("whois: %v - %v is not an IPv4 range", first, last)
	}
	// Recover the prefix length from the range width (ranges in this
	// registry are always CIDR-aligned).
	f, l := first.As4(), last.As4()
	fv := uint32(f[0])<<24 | uint32(f[1])<<16 | uint32(f[2])<<8 | uint32(f[3])
	lv := uint32(l[0])<<24 | uint32(l[1])<<16 | uint32(l[2])<<8 | uint32(l[3])
	span := lv - fv
	bits := 32
	for span > 0 {
		span >>= 1
		bits--
	}
	return first.Prefix(bits)
}

func lastAddr(p netip.Prefix) netip.Addr {
	b := p.Addr().As4()
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	v |= (1 << (32 - p.Bits())) - 1
	var out [4]byte
	out[0], out[1], out[2], out[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	return netip.AddrFrom4(out)
}
