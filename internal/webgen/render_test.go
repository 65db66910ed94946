package webgen

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// referenceRenderHTML is the strings.Builder/fmt renderer RenderHTML
// replaced, kept as the byte-for-byte reference for the append-based
// one.
func referenceRenderHTML(s *Site, p *Page, padded bool) []byte {
	var b strings.Builder
	b.WriteString("<!doctype html>\n<html><head><title>")
	b.WriteString(s.Host + p.Path)
	b.WriteString("</title>\n")
	for _, link := range p.Links {
		switch {
		case strings.HasSuffix(link, ".css"):
			fmt.Fprintf(&b, "<link rel=\"stylesheet\" href=\"%s\">\n", link)
		case strings.HasSuffix(link, ".woff2"):
			fmt.Fprintf(&b, "<link rel=\"preload\" as=\"font\" href=\"%s\">\n", link)
		}
	}
	b.WriteString("</head>\n<body>\n")
	for _, link := range p.Links {
		switch {
		case strings.HasSuffix(link, ".js"):
			fmt.Fprintf(&b, "<script src=\"%s\"></script>\n", link)
		case strings.HasSuffix(link, ".png"), strings.HasSuffix(link, ".jpg"), strings.HasSuffix(link, ".svg"):
			fmt.Fprintf(&b, "<img src=\"%s\" alt=\"\">\n", link)
		case strings.HasSuffix(link, ".css"), strings.HasSuffix(link, ".woff2"):
			// already emitted in head
		default:
			fmt.Fprintf(&b, "<a href=\"%s\">%s</a>\n", link, link)
		}
	}
	b.WriteString("</body></html>\n")
	out := []byte(b.String())
	if padded && int64(len(out)) < p.Size {
		pad := make([]byte, p.Size-int64(len(out)))
		fill := []byte("<!-- synthetic government content padding -->\n")
		for i := range pad {
			pad[i] = fill[i%len(fill)]
		}
		out = append(out, pad...)
	}
	return out
}

// TestRenderHTMLMatchesReference renders every HTML page of every site
// in a scale-0.02 estate both padded (what webserve serves) and
// unpadded (what MemFetcher serves), and requires the reference bytes.
func TestRenderHTMLMatchesReference(t *testing.T) {
	e := buildEstate(t, 0.02)
	pages := 0
	for _, s := range e.SiteList {
		for _, path := range s.SortedPaths() {
			p := s.Pages[path]
			if p.ContentType != "text/html" {
				continue
			}
			pages++
			for _, padded := range []bool{false, true} {
				got, want := RenderHTML(s, p, padded), referenceRenderHTML(s, p, padded)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s%s padded=%v: rendered %d bytes, reference %d", s.Host, path, padded, len(got), len(want))
				}
			}
		}
	}
	if pages == 0 {
		t.Fatal("estate has no HTML pages")
	}
}

// TestMemFetcherAllocationBudget pins the allocations of serving one
// HTML page from memory. A canonical URL skips net/url, so what is
// left is the rendered body (one buffer) and the Response.
func TestMemFetcherAllocationBudget(t *testing.T) {
	e := buildEstate(t, 0.02)
	var site *Site
	for _, s := range e.SiteList {
		if s.Kind != KindContractor && !s.GeoBlocked && s.Pages["/"] != nil && len(s.Pages["/"].Links) > 0 {
			site = s
			break
		}
	}
	if site == nil {
		t.Fatal("no reachable site with a linked root page")
	}
	m := &MemFetcher{Estate: e, Vantage: site.Country}
	ctx := context.Background()
	raw := site.URL("/")
	allocs := testing.AllocsPerRun(20, func() {
		if resp, err := m.Fetch(ctx, raw); err != nil || resp.Status != 200 {
			t.Fatalf("fetch %s: %v", raw, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("MemFetcher.Fetch(%s) allocates %.0f objects, budget 2", raw, allocs)
	}
}
