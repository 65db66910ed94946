// Package har models the HTTP-Archive-style capture the crawler
// produces (§3.2): one entry per fetched resource with the fields the
// downstream pipeline needs. It writes a compact JSON encoding so
// crawl results can be persisted.
package har

import (
	"encoding/json"
	"io"
	"net/url"
	"sort"
	"strings"
)

// Entry is one captured request/response pair.
type Entry struct {
	URL         string `json:"url"`
	Host        string `json:"host"`
	Status      int    `json:"status"`
	ContentType string `json:"contentType,omitempty"`
	BodySize    int64  `json:"bodySize"`
	Depth       int    `json:"depth"`         // 0 = landing page
	Landing     string `json:"landing"`       // the landing URL this crawl started from
	Country     string `json:"country"`       // vantage country code
	FromVPN     string `json:"vpn,omitempty"` // VPN service used
	// Failure is the fetch.FailKind bucket when the fetch did not
	// produce a usable page ("" for clean fetches): dns, timeout,
	// reset, geo-blocked, 5xx, truncated, other.
	Failure string `json:"failure,omitempty"`
}

// Archive is an ordered collection of entries for one crawl.
type Archive struct {
	Version string  `json:"version"`
	Creator string  `json:"creator"`
	Entries []Entry `json:"entries"`
}

// New returns an empty archive with creator metadata.
func New() *Archive {
	return &Archive{Version: "1.2", Creator: "govhost-crawler"}
}

// Add appends an entry.
func (a *Archive) Add(e Entry) { a.Entries = append(a.Entries, e) }

// Hosts returns the sorted set of distinct hostnames in the archive.
func (a *Archive) Hosts() []string {
	set := make(map[string]bool)
	for _, e := range a.Entries {
		set[e.Host] = true
	}
	out := make([]string, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// FailureCounts tallies entries per failure bucket; clean entries are
// not counted. The map is freshly allocated.
func (a *Archive) FailureCounts() map[string]int {
	out := map[string]int{}
	for i := range a.Entries {
		if f := a.Entries[i].Failure; f != "" {
			out[f]++
		}
	}
	return out
}

// TotalBytes sums body sizes across entries.
func (a *Archive) TotalBytes() int64 {
	var total int64
	for _, e := range a.Entries {
		total += e.BodySize
	}
	return total
}

// WriteJSON writes the archive as JSON.
func (a *Archive) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(a)
}

// HostOf extracts the hostname of a URL, or "" when unparseable.
func HostOf(raw string) string {
	if host, _, ok := SplitCanonical(raw); ok {
		return host
	}
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return u.Hostname()
}

// SplitCanonical splits an http(s) URL into its host and path when the
// URL is already in the form net/url prints: a lower-case scheme, a
// host of [a-z0-9.-], and a non-empty path of unreserved characters
// and '/' in which no segment is empty or starts with a dot. A query,
// fragment, port, userinfo or percent-escape rules the URL out. For an
// accepted URL, url.Parse(raw).String() == raw, host equals its
// Hostname() and path its Path, so callers may skip net/url; ok is
// false for every other URL, and those go through net/url.
func SplitCanonical(raw string) (host, path string, ok bool) {
	var rest string
	switch {
	case strings.HasPrefix(raw, "https://"):
		rest = raw[len("https://"):]
	case strings.HasPrefix(raw, "http://"):
		rest = raw[len("http://"):]
	default:
		return "", "", false
	}
	slash := strings.IndexByte(rest, '/')
	if slash <= 0 {
		return "", "", false
	}
	host, path = rest[:slash], rest[slash:]
	for i := 0; i < len(host); i++ {
		if c := host[i]; !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '.' || c == '-') {
			return "", "", false
		}
	}
	for i := 0; i < len(path); i++ {
		switch c := path[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '.', c == '_', c == '~':
		case c == '/':
			// "//", "/." and "/.." are segments net/url's reference
			// resolution would rewrite.
			if i+1 < len(path) && (path[i+1] == '/' || path[i+1] == '.') {
				return "", "", false
			}
		default:
			return "", "", false
		}
	}
	return host, path, true
}
