package whois

import (
	"net/netip"
	"testing"
)

// FuzzParse holds the WHOIS parser to its contract on arbitrary text:
// no panic, and every accepted record r survives Render → Parse
// unchanged. The seed is Render output; the committed corpus holds an
// ARIN-style response and the counterexamples below.
func FuzzParse(f *testing.F) {
	f.Add(Render(sampleRecord()))
	f.Fuzz(func(t *testing.T, text string) {
		r, err := Parse(text)
		if err != nil {
			return
		}
		again, err := Parse(Render(r))
		if err != nil {
			t.Fatalf("re-parsing its own rendering: %v", err)
		}
		if again != r {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, r)
		}
	})
}

// TestRenderWithoutPrefix is the first FuzzParse counterexample
// (corpus entry no-inetnum): Parse accepts a response without an
// address block, and Render then panicked computing the block's last
// address. Such a record now renders without an inetnum line.
func TestRenderWithoutPrefix(t *testing.T) {
	r, err := Parse("OrgName: X Corp\n")
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(Render(r))
	if err != nil || again != r {
		t.Fatalf("round trip: got %+v, %v; want %+v", again, err, r)
	}
}

// TestParseRangeEdges pins the address-block forms Parse accepts: an
// IPv6 range panicked in the IPv4 width arithmetic, a CIDR block with
// host bits set did not survive Render → Parse, and a reversed range
// read as 0.0.0.0/0. Rejected blocks leave Prefix unset.
func TestParseRangeEdges(t *testing.T) {
	cases := map[string]netip.Prefix{
		"16.12.0.0 - 16.12.255.255":             netip.MustParsePrefix("16.12.0.0/16"),
		"16.12.34.56/16":                        netip.MustParsePrefix("16.12.0.0/16"),
		"2001:db8:: - 2001:db8::ffff":           {},
		"2001:db8::/32":                         {},
		"::ffff:16.12.0.0 - ::ffff:16.12.0.255": {},
		"16.12.255.255 - 16.12.0.0":             {},
	}
	for in, want := range cases {
		r, err := Parse("inetnum: " + in + "\nnetname: N\n")
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if r.Prefix != want {
			t.Errorf("%s: prefix %v, want %v", in, r.Prefix, want)
		}
	}
}
