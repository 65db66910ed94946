package crawler

import (
	"net/url"
	"strings"
	"testing"

	"repro/internal/har"
)

// referenceCleanLink is cleanLink without its canonical fast path:
// every value goes through net/url. FuzzCleanLink holds the two equal.
func referenceCleanLink(base *url.URL, raw string) string {
	raw = strings.TrimSpace(raw)
	if raw == "" || strings.HasPrefix(raw, "#") {
		return ""
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

// FuzzCleanLink is the differential test of the canonical-URL fast
// path: cleanLink must agree with the net/url-only reference on every
// (base, raw) pair, and every URL har.SplitCanonical accepts must be
// one net/url prints unchanged, with the same host and path net/url
// reports. The seed corpus under testdata/fuzz/FuzzCleanLink holds
// the forms closest to the fast path's edges.
func FuzzCleanLink(f *testing.F) {
	f.Fuzz(func(t *testing.T, base, raw string) {
		baseURL, err := url.Parse(base)
		if err != nil {
			return // ExtractLinks never cleans against an unparseable base
		}
		if got, want := cleanLink(baseURL, raw), referenceCleanLink(baseURL, raw); got != want {
			t.Fatalf("cleanLink(%q, %q) = %q, reference %q", base, raw, got, want)
		}
		host, path, ok := har.SplitCanonical(raw)
		if !ok {
			return
		}
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatalf("SplitCanonical accepts %q, which url.Parse rejects: %v", raw, err)
		}
		if s := u.String(); s != raw {
			t.Fatalf("SplitCanonical accepts %q, which net/url prints as %q", raw, s)
		}
		if host != u.Hostname() || path != u.Path {
			t.Fatalf("SplitCanonical(%q) = %q, %q; net/url has host %q, path %q", raw, host, path, u.Hostname(), u.Path)
		}
	})
}
