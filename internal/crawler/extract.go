package crawler

import (
	"bytes"
	"net/url"
	"strings"

	"repro/internal/har"
)

var (
	hrefAttr = []byte("href=")
	srcAttr  = []byte("src=")
)

// ExtractLinks scans an HTML document for href/src attribute values
// and resolves them against the base URL. It is a small, permissive
// scanner rather than a full HTML parser: it understands quoted
// attributes, skips fragments, javascript: and mailto: pseudo-links,
// and deduplicates while preserving first-seen order — all the crawler
// needs from Selenium-captured pages. Each attribute value is copied
// out of body once, so a returned link never keeps the body alive.
func ExtractLinks(base string, body []byte) []string {
	baseURL, err := url.Parse(base)
	if err != nil {
		return nil
	}
	var out []string
	seen := make(map[string]bool)
	for i := 0; i < len(body); {
		// Find the next href= or src= attribute.
		hi := bytes.Index(body[i:], hrefAttr)
		si := bytes.Index(body[i:], srcAttr)
		var at, skip int
		switch {
		case hi < 0 && si < 0:
			return out
		case si < 0 || (hi >= 0 && hi < si):
			at, skip = i+hi, 5
		default:
			at, skip = i+si, 4
		}
		i = at + skip
		if i >= len(body) {
			return out
		}
		quote := body[i]
		if quote != '"' && quote != '\'' {
			continue
		}
		end := bytes.IndexByte(body[i+1:], quote)
		if end < 0 {
			return out
		}
		raw := string(body[i+1 : i+1+end])
		i += end + 2
		link := cleanLink(baseURL, raw)
		if link != "" && !seen[link] {
			seen[link] = true
			out = append(out, link)
		}
	}
	return out
}

// cleanLink resolves one attribute value against base, returning "" for
// values the crawl does not follow. A URL already in the form net/url
// prints resolves to itself and is returned as is; every other value
// goes through net/url.
func cleanLink(base *url.URL, raw string) string {
	raw = strings.TrimSpace(raw)
	if raw == "" || strings.HasPrefix(raw, "#") {
		return ""
	}
	if _, _, ok := har.SplitCanonical(raw); ok {
		return raw
	}
	lower := strings.ToLower(raw)
	for _, scheme := range []string{"javascript:", "mailto:", "tel:", "data:"} {
		if strings.HasPrefix(lower, scheme) {
			return ""
		}
	}
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	resolved := base.ResolveReference(u)
	if resolved.Scheme != "http" && resolved.Scheme != "https" {
		return ""
	}
	resolved.Fragment = ""
	return resolved.String()
}
