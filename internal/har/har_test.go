package har

import (
	"bytes"
	"encoding/json"
	"testing"
)

func sample() *Archive {
	a := New()
	a.Add(Entry{URL: "https://finance.gov.br/", Host: "finance.gov.br", Status: 200, BodySize: 1000, Depth: 0, Country: "BR"})
	a.Add(Entry{URL: "https://finance.gov.br/a.css", Host: "finance.gov.br", Status: 200, BodySize: 500, Depth: 1, Country: "BR"})
	a.Add(Entry{URL: "https://cdn.example.com/x.js", Host: "cdn.example.com", Status: 200, BodySize: 2500, Depth: 1, Country: "BR"})
	return a
}

func TestJSONRoundTrip(t *testing.T) {
	a := sample()
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var b Archive
	if err := json.NewDecoder(&buf).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 3 || b.Version != "1.2" || b.Creator != "govhost-crawler" {
		t.Fatalf("round trip lost data: %+v", b)
	}
	if b.Entries[2].BodySize != 2500 {
		t.Fatalf("entry field lost: %+v", b.Entries[2])
	}
}

func TestHostsDeduplicated(t *testing.T) {
	hosts := sample().Hosts()
	if len(hosts) != 2 || hosts[0] != "cdn.example.com" {
		t.Fatalf("Hosts = %v", hosts)
	}
}

func TestTotalBytes(t *testing.T) {
	if got := sample().TotalBytes(); got != 4000 {
		t.Fatalf("TotalBytes = %d, want 4000", got)
	}
}

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"https://www.gub.uy/path?q=1": "www.gub.uy",
		"http://example.com:8080/":    "example.com",
		"://bad":                      "",
	}
	for in, want := range cases {
		if got := HostOf(in); got != want {
			t.Errorf("HostOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSplitCanonical(t *testing.T) {
	accepted := map[string][2]string{
		"https://www.gub.uy/":                 {"www.gub.uy", "/"},
		"http://finance.gov.br/l1/page-0":     {"finance.gov.br", "/l1/page-0"},
		"https://cdn-1.example.com/a/B_c~.js": {"cdn-1.example.com", "/a/B_c~.js"},
	}
	for in, want := range accepted {
		host, path, ok := SplitCanonical(in)
		if !ok || host != want[0] || path != want[1] {
			t.Errorf("SplitCanonical(%q) = %q, %q, %v; want %q, %q, true", in, host, path, ok, want[0], want[1])
		}
	}
	for _, in := range []string{
		"HTTPS://www.gub.uy/", "https://WWW.gub.uy/", "https://www.gub.uy",
		"https://www.gub.uy/a%2Fb", "https://www.gub.uy/a/./b", "https://www.gub.uy/a/../b",
		"https://www.gub.uy//a", "https://www.gub.uy/?q", "https://www.gub.uy/#f",
		"https://www.gub.uy:443/", "https://user@www.gub.uy/", "https://[::1]/",
		"ftp://www.gub.uy/", "/relative/path", "https:///path",
	} {
		if host, path, ok := SplitCanonical(in); ok {
			t.Errorf("SplitCanonical(%q) = %q, %q, true; want the net/url fallback", in, host, path)
		}
	}
}

// TestHostOfCanonicalAllocatesNothing pins the crawl's per-URL host
// lookup: a canonical URL's host is a substring of the URL, so no
// net/url parse and no allocation is needed.
func TestHostOfCanonicalAllocatesNothing(t *testing.T) {
	raw := "https://finance.gov.br/l1/page-0"
	allocs := testing.AllocsPerRun(100, func() {
		if HostOf(raw) != "finance.gov.br" {
			t.Fatal("wrong host")
		}
	})
	if allocs != 0 {
		t.Fatalf("HostOf on a canonical URL allocates %.0f objects, budget 0", allocs)
	}
}
