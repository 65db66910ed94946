package dnssim

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
)

// WriteZoneFile serializes the authoritative data in RFC 1035 §5
// master-file format: one record per line, fully-qualified names,
// explicit TTLs. CNAMEs come first so the file reads like the
// resolution order; PTR records are emitted under in-addr.arpa.
func (z *Zones) WriteZoneFile(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; govhost synthetic authoritative zone (%d A, %d CNAME, %d PTR)\n",
		len(z.a), len(z.cname), len(z.ptr))

	cnames := make([]string, 0, len(z.cname))
	for name := range z.cname {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	for _, name := range cnames {
		fmt.Fprintf(bw, "%s. 300 IN CNAME %s.\n", name, z.cname[name])
	}

	arecords := make([]string, 0, len(z.a))
	for name := range z.a {
		arecords = append(arecords, name)
	}
	sort.Strings(arecords)
	for _, name := range arecords {
		fmt.Fprintf(bw, "%s. 60 IN A %s\n", name, z.a[name])
	}

	ptrs := make([]netip.Addr, 0, len(z.ptr))
	for addr := range z.ptr {
		ptrs = append(ptrs, addr)
	}
	sort.Slice(ptrs, func(i, j int) bool { return ptrs[i].Less(ptrs[j]) })
	for _, addr := range ptrs {
		fmt.Fprintf(bw, "%s 300 IN PTR %s.\n", reverseName(addr), z.ptr[addr])
	}
	return bw.Flush()
}
