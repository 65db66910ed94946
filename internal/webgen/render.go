package webgen

import (
	"context"
	"fmt"
	"net/url"
	"strings"

	"repro/internal/fetch"
	"repro/internal/har"
)

// RenderHTML produces the HTML body of a document page: a title,
// anchors and resource tags for every link, and enough filler to
// approximate the page's nominal size when padded is true. The page is
// appended into one buffer sized up front from its links (and its
// nominal size when padded), so rendering costs a single allocation.
func RenderHTML(s *Site, p *Page, padded bool) []byte {
	const widestTag = len(`<link rel="preload" as="font" href="">` + "\n")
	size := len(htmlHead) + len(s.Host) + len(p.Path) + len(htmlTitleEnd) + len(htmlBodyOpen) + len(htmlTail)
	for _, link := range p.Links {
		size += 2*len(link) + widestTag // an anchor carries its link twice
	}
	if padded && int64(size) < p.Size {
		size = int(p.Size)
	}
	out := make([]byte, 0, size)
	out = append(out, htmlHead...)
	out = append(out, s.Host...)
	out = append(out, p.Path...)
	out = append(out, htmlTitleEnd...)
	for _, link := range p.Links {
		switch {
		case strings.HasSuffix(link, ".css"):
			out = appendTag(out, `<link rel="stylesheet" href="`, link, "\">\n")
		case strings.HasSuffix(link, ".woff2"):
			out = appendTag(out, `<link rel="preload" as="font" href="`, link, "\">\n")
		}
	}
	out = append(out, htmlBodyOpen...)
	for _, link := range p.Links {
		switch {
		case strings.HasSuffix(link, ".js"):
			out = appendTag(out, `<script src="`, link, "\"></script>\n")
		case strings.HasSuffix(link, ".png"), strings.HasSuffix(link, ".jpg"), strings.HasSuffix(link, ".svg"):
			out = appendTag(out, `<img src="`, link, "\" alt=\"\">\n")
		case strings.HasSuffix(link, ".css"), strings.HasSuffix(link, ".woff2"):
			// already emitted in head
		default:
			out = appendTag(out, `<a href="`, link, `">`)
			out = append(out, link...)
			out = append(out, "</a>\n"...)
		}
	}
	out = append(out, htmlTail...)
	for padded && int64(len(out)) < p.Size {
		fill := htmlPadding
		if rest := p.Size - int64(len(out)); rest < int64(len(fill)) {
			fill = fill[:rest]
		}
		out = append(out, fill...)
	}
	return out
}

const (
	htmlHead     = "<!doctype html>\n<html><head><title>"
	htmlTitleEnd = "</title>\n"
	htmlBodyOpen = "</head>\n<body>\n"
	htmlTail     = "</body></html>\n"
	htmlPadding  = "<!-- synthetic government content padding -->\n"
)

// appendTag appends open, link and close to out.
func appendTag(out []byte, open, link, close string) []byte {
	out = append(out, open...)
	out = append(out, link...)
	return append(out, close...)
}

// RenderResource produces the body of a non-HTML resource.
func RenderResource(p *Page, padded bool) []byte {
	header := []byte("/* synthetic resource " + p.Path + " */\n")
	if !padded || int64(len(header)) >= p.Size {
		return header
	}
	out := make([]byte, p.Size)
	copy(out, header)
	for i := len(header); i < len(out); i++ {
		out[i] = byte('a' + i%23)
	}
	return out
}

// MemFetcher serves the estate directly from memory for a fixed
// vantage country. It reproduces the observable behaviours of the real
// server — geo-blocking, 404s for unknown paths, DNS-style failures
// for unknown hosts — without paying for padding bytes.
type MemFetcher struct {
	Estate  *Estate
	Vantage string
}

// Fetch implements fetch.Fetcher.
func (m *MemFetcher) Fetch(ctx context.Context, raw string) (*fetch.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	host, path, ok := har.SplitCanonical(raw)
	if !ok {
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("webgen: bad url %q: %w", raw, err)
		}
		host, path = u.Hostname(), u.Path
	}
	site := m.Estate.Site(host)
	if site == nil {
		return nil, fmt.Errorf("webgen: no such host %q: %w", host, fetch.ErrHostNotFound)
	}
	if site.GeoBlocked && site.Country != m.Vantage {
		return &fetch.Response{Status: 403, ContentType: "text/html",
			Body: []byte("<html><body>Access restricted to domestic visitors</body></html>")}, nil
	}
	if path == "" {
		path = "/"
	}
	page := site.Pages[path]
	if page == nil {
		return &fetch.Response{Status: 404, ContentType: "text/html",
			Body: []byte("<html><body>Not found</body></html>")}, nil
	}
	var body []byte
	if page.ContentType == "text/html" {
		body = RenderHTML(site, page, false)
	} else {
		body = RenderResource(page, false)
	}
	return &fetch.Response{
		Status:      200,
		ContentType: page.ContentType,
		Body:        body,
		BodySize:    page.Size,
	}, nil
}
