package dnssim

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
)

// parseZoneFile reads a master file written by WriteZoneFile (or any
// subset of the "name TTL IN TYPE rdata" line format with A, CNAME and
// PTR records) into a fresh Zones database usable for resolution. It is
// the read half of TestZoneFileRoundTrip.
func parseZoneFile(r io.Reader) (*Zones, error) {
	z := &Zones{
		cname: make(map[string]string),
		a:     make(map[string]netip.Addr),
		ptr:   make(map[netip.Addr]string),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 {
			return nil, fmt.Errorf("dnssim: zone line %d: want 5 fields, got %d", lineNo, len(fields))
		}
		name := strings.TrimSuffix(strings.ToLower(fields[0]), ".")
		if _, err := strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("dnssim: zone line %d: bad TTL %q", lineNo, fields[1])
		}
		if fields[2] != "IN" {
			return nil, fmt.Errorf("dnssim: zone line %d: class %q unsupported", lineNo, fields[2])
		}
		rdata := fields[4]
		switch fields[3] {
		case "A":
			addr, err := netip.ParseAddr(rdata)
			if err != nil {
				return nil, fmt.Errorf("dnssim: zone line %d: %v", lineNo, err)
			}
			z.a[name] = addr
		case "CNAME":
			z.cname[name] = strings.TrimSuffix(strings.ToLower(rdata), ".")
		case "PTR":
			addr, ok := parseReverse(name)
			if !ok {
				return nil, fmt.Errorf("dnssim: zone line %d: PTR owner %q is not in-addr.arpa", lineNo, name)
			}
			z.ptr[addr] = strings.TrimSuffix(rdata, ".")
		default:
			return nil, fmt.Errorf("dnssim: zone line %d: type %q unsupported", lineNo, fields[3])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return z, nil
}
