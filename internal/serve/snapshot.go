// Package serve is the always-on analysis daemon: it holds a loaded
// study as an immutable snapshot and answers every index-backed
// figure and table over HTTP/JSON. A snapshot bundles the dataset,
// its one-pass analysis index, the world model, a content-derived
// version string, and a per-snapshot response cache — swapping the
// snapshot pointer therefore swaps the cache atomically with the data
// it was computed from, so a response can never mix versions.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/url"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/world"
)

// Snapshot is one immutable serving generation: a dataset, the
// aggregates derived from it, and the responses rendered from those
// aggregates. Snapshots are safe for unbounded concurrent reads; they
// are never mutated after NewSnapshotWorkers returns (the cache only gains
// entries, under its own lock).
type Snapshot struct {
	ds *dataset.Dataset
	ix *analysis.Index
	w  *world.Model

	version string // first 12 hex chars of sha256 over the canonical JSONL export
	desc    string // human-readable provenance ("jsonl:/path", "run:seed=42", ...)

	cache sched.Memo[string, response]
}

// response is one rendered endpoint call: body and HTTP status.
type response struct {
	body   []byte
	status int
}

// NewSnapshotWorkers freezes ds into a serving snapshot. It fills the
// dataset's derived totals (idempotent) so hand-built datasets serve
// the same stats a pipeline-produced one would, then derives the
// version from the canonical export bytes — equal datasets hash to
// equal versions no matter where they were loaded from.
//
// The analysis index build is partitioned across workers goroutines
// (0 or negative picks the default of 8). The worker count shapes
// only the build's wall-clock time — the index, and therefore every
// body this snapshot will ever serve, is byte-identical at any
// setting — so snapshot builds and /admin/reload swaps complete
// faster without perturbing a single response.
func NewSnapshotWorkers(ds *dataset.Dataset, desc string, workers int) (*Snapshot, error) {
	ds.FillTotals()
	v, err := DatasetVersion(ds)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		ds:      ds,
		ix:      analysis.BuildIndexWorkers(ds, sched.ResolveWorkers(workers)),
		w:       world.New(),
		version: v,
		desc:    desc,
	}, nil
}

// DatasetVersion is the content version a snapshot of ds would carry:
// the first 12 hex characters of a sha256 over the canonical JSONL
// export. It is a pure function of the dataset, so a client holding
// the same JSONL file computes the same version the daemon serves.
func DatasetVersion(ds *dataset.Dataset) (string, error) {
	h := sha256.New()
	if err := export.WriteJSONL(h, ds); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}

// Version returns the snapshot's content version.
func (s *Snapshot) Version() string { return s.version }

// Desc returns the snapshot's provenance string.
func (s *Snapshot) Desc() string { return s.desc }

// Countries returns the sorted country codes present in the
// government records — the valid values for /api/country?code=.
func (s *Snapshot) Countries() []string {
	shares := s.ix.CountryShares()
	codes := make([]string, 0, len(shares))
	for c := range shares {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	return codes
}

// Render answers one endpoint for the given query, going through the
// same single-flight cache the HTTP handlers use but recording no
// metrics. Tests and the benchmark's load generator use it to compute
// the exact bytes the daemon must produce for this snapshot.
func (s *Snapshot) Render(name string, query url.Values) (body []byte, status int) {
	return s.respond(name, query, nil)
}

// respond renders (or replays) the response for one endpoint call.
// Responses with a canonical parameter set — including deterministic
// errors like an unknown country code — are cached per snapshot;
// malformed parameter sets are rendered uncached so junk query keys
// cannot grow the cache without bound.
func (s *Snapshot) respond(name string, query url.Values, m *metrics.ServeMetrics) ([]byte, int) {
	ep := endpointIndex[name]
	if ep == nil {
		return marshalError(s.version, name, &apiError{
			Status: 404, Code: "unknown-endpoint",
			Message: "no such endpoint: " + name,
		})
	}
	params, aerr := canonicalParams(ep, query)
	if aerr != nil {
		return marshalError(s.version, name, aerr)
	}
	key := cacheKey(name, params)

	r, kind := s.cache.Do(key, func() response {
		body, status := s.renderFresh(ep, params)
		return response{body, status}
	})
	if kind == sched.Miss {
		m.RecordCacheMiss()
	} else {
		m.RecordCacheHit(kind == sched.Coalesced)
	}
	return r.body, r.status
}

// renderFresh computes an endpoint's response body from the index.
func (s *Snapshot) renderFresh(ep *endpoint, params map[string]string) ([]byte, int) {
	data, err := ep.render(s, params)
	if err != nil {
		aerr, ok := err.(*apiError)
		if !ok {
			aerr = &apiError{Status: 500, Code: "render-failed", Message: err.Error()}
		}
		return marshalError(s.version, ep.name, aerr)
	}
	return marshalEnvelope(s.version, ep.name, params, data)
}

// ETagFor computes the strong entity tag a daemon at the given
// dataset version serves for one endpoint + query: the version joined
// with a 16-hex digest of the canonical cache key. Because a response
// body is a pure function of (version, endpoint, canonical params),
// the tag is strong in the RFC 9110 sense — equal tags imply
// byte-equal bodies. It returns "" when the query does not
// canonicalize (those responses are uncached errors and carry no
// ETag) or when the version holds a byte an entity tag cannot carry.
// Clients holding the same dataset file can compute the tag the
// daemon will serve without a first request.
func ETagFor(version, name string, query url.Values) string {
	ep := endpointIndex[name]
	if ep == nil || !etagSafe(version) {
		return ""
	}
	params, aerr := canonicalParams(ep, query)
	if aerr != nil {
		return ""
	}
	return etagOf(version, cacheKey(name, params))
}

// etagSafe reports whether version can sit inside a quoted entity
// tag: every byte must be an RFC 9110 etagc (visible ASCII other than
// DQUOTE, or obs-text). Versions from DatasetVersion are hex and
// always qualify.
func etagSafe(version string) bool {
	for i := 0; i < len(version); i++ {
		if c := version[i]; c <= ' ' || c == '"' || c == 0x7f {
			return false
		}
	}
	return true
}

// etagOf renders the quoted strong tag for a version + cache key.
func etagOf(version, key string) string {
	sum := sha256.Sum256([]byte(key))
	return `"` + version + "-" + hex.EncodeToString(sum[:8]) + `"`
}

// etagMatch reports whether an If-None-Match header value matches the
// given strong tag: "*" matches anything, and otherwise the header is
// a comma-separated list of entity tags — optionally W/-prefixed
// quoted strings — compared by their opaque part, RFC 9110's weak
// comparison, which If-None-Match mandates. A comma inside the quotes
// belongs to the tag; a list element that is not a quoted tag is
// skipped.
func etagMatch(header, tag string) bool {
	if header == "" || tag == "" {
		return false
	}
	opaque := strings.TrimPrefix(tag, "W/")
	for h := header; h != ""; {
		h = strings.TrimLeft(h, " \t,")
		if q := strings.TrimPrefix(h, "W/"); strings.HasPrefix(q, `"`) {
			end := strings.IndexByte(q[1:], '"')
			if end < 0 {
				return false // unterminated tag: nothing after it parses
			}
			if q[:end+2] == opaque {
				return true
			}
			h = q[end+2:]
			continue
		}
		i := strings.IndexByte(h, ',')
		if i < 0 {
			i = len(h)
		}
		if strings.TrimRight(h[:i], " \t") == "*" {
			return true
		}
		h = h[i:]
	}
	return false
}

// cacheKey is the canonical identity of one response: endpoint name
// plus the sorted canonical parameters.
func cacheKey(name string, params map[string]string) string {
	if len(params) == 0 {
		return name
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	sep := "?"
	for _, k := range keys {
		b.WriteString(sep)
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(params[k])
		sep = "&"
	}
	return b.String()
}
