package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// get performs one GET against the test server with an optional
// If-None-Match header and returns the response plus its full body.
func get(t *testing.T, base, path, inm string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestETagOnSuccess pins the conditional-request contract for a plain
// 200: the response carries a strong quoted ETag, the tag equals what
// ETagFor computes offline from (version, endpoint, params), and
// distinct parameter sets get distinct tags under the same version.
func TestETagOnSuccess(t *testing.T) {
	snap := newTestSnapshot(t, 1, 64)
	srv := New(Config{Snapshot: snap, Workers: 4})
	ts := httptest.NewServer(srv.mux)
	defer ts.Close()

	resp, body := get(t, ts.URL, "/api/fig2", "")
	if resp.StatusCode != 200 || len(body) == 0 {
		t.Fatalf("status %d, body %d bytes", resp.StatusCode, len(body))
	}
	tag := resp.Header.Get("ETag")
	if tag == "" {
		t.Fatal("200 response carries no ETag")
	}
	if !strings.HasPrefix(tag, `"`) || !strings.HasSuffix(tag, `"`) || strings.HasPrefix(tag, "W/") {
		t.Fatalf("tag %q is not a quoted strong tag", tag)
	}
	if want := ETagFor(snap.Version(), "fig2", nil); tag != want {
		t.Fatalf("served tag %q, ETagFor computes %q", tag, want)
	}
	if !strings.Contains(tag, snap.Version()) {
		t.Fatalf("tag %q does not embed version %s", tag, snap.Version())
	}

	respUS, _ := get(t, ts.URL, "/api/country?code=US", "")
	respDE, _ := get(t, ts.URL, "/api/country?code=DE", "")
	if respUS.Header.Get("ETag") == respDE.Header.Get("ETag") {
		t.Fatalf("different params share tag %q", respUS.Header.Get("ETag"))
	}
}

// TestConditionalRequestRoundTrip drives the full revalidation cycle:
// a match answers 304 with the tag and version headers and no body, a
// stale or garbage tag answers 200 with the full body, "*" and the
// weak W/ form both match, and the NotModified counter tracks exactly
// the 304s.
func TestConditionalRequestRoundTrip(t *testing.T) {
	snap := newTestSnapshot(t, 2, 64)
	reg := &metrics.Registry{}
	srv := New(Config{Snapshot: snap, Workers: 4, Registry: reg})
	ts := httptest.NewServer(srv.mux)
	defer ts.Close()

	resp, full := get(t, ts.URL, "/api/fig5", "")
	tag := resp.Header.Get("ETag")
	if resp.StatusCode != 200 || tag == "" {
		t.Fatalf("priming request: status %d, tag %q", resp.StatusCode, tag)
	}

	// Exact match → 304, empty body, headers intact.
	resp, body := get(t, ts.URL, "/api/fig5", tag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("matching tag: status %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	if got := resp.Header.Get("ETag"); got != tag {
		t.Fatalf("304 ETag %q, want %q", got, tag)
	}
	if got := resp.Header.Get("X-Dataset-Version"); got != snap.Version() {
		t.Fatalf("304 version header %q, want %q", got, snap.Version())
	}

	// A list with the tag buried in it still matches.
	if resp, _ = get(t, ts.URL, "/api/fig5", `"bogus", `+tag); resp.StatusCode != 304 {
		t.Fatalf("tag in list: status %d, want 304", resp.StatusCode)
	}
	// Weak comparison: W/ prefix on the client's copy must match.
	if resp, _ = get(t, ts.URL, "/api/fig5", "W/"+tag); resp.StatusCode != 304 {
		t.Fatalf("weak form: status %d, want 304", resp.StatusCode)
	}
	// "*" matches any current representation.
	if resp, _ = get(t, ts.URL, "/api/fig5", "*"); resp.StatusCode != 304 {
		t.Fatalf("star: status %d, want 304", resp.StatusCode)
	}

	// A stale tag revalidates to a full 200 with identical bytes.
	resp, body = get(t, ts.URL, "/api/fig5", `"`+snap.Version()+`-0000000000000000"`)
	if resp.StatusCode != 200 || string(body) != string(full) {
		t.Fatalf("stale tag: status %d, body diverges: %v", resp.StatusCode, string(body) != string(full))
	}

	if nm := reg.Serve.NotModified.Load(); nm != 4 {
		t.Fatalf("NotModified = %d, want 4", nm)
	}
	// The 304s were still requests; the per-endpoint count covers them.
	if reqs := reg.Snapshot().Runtime.Serve.Requests["fig5"]; reqs != 6 {
		t.Fatalf("Requests[fig5] = %d, want 6", reqs)
	}
}

// TestConditionalRequestAcrossReload pins the strong-tag guarantee
// through a snapshot swap: the tag a client cached against version A
// must stop matching once version B serves, because equal tags must
// imply byte-equal bodies.
func TestConditionalRequestAcrossReload(t *testing.T) {
	snapA := newTestSnapshot(t, 1, 48)
	snapB := newTestSnapshot(t, 2, 48)
	srv := New(Config{Snapshot: snapA, Workers: 4, Reloader: flipReloader(snapA, snapB)})
	ts := httptest.NewServer(srv.mux)
	defer ts.Close()

	resp, bodyA := get(t, ts.URL, "/api/table5", "")
	tagA := resp.Header.Get("ETag")
	if tagA == "" {
		t.Fatal("no tag before reload")
	}

	reload, err := http.Post(ts.URL+"/admin/reload?jsonl=ignored", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	reload.Body.Close()
	if reload.StatusCode != 200 {
		t.Fatalf("reload status %d", reload.StatusCode)
	}

	resp, bodyB := get(t, ts.URL, "/api/table5", tagA)
	if resp.StatusCode != 200 {
		t.Fatalf("old tag after reload: status %d, want full 200", resp.StatusCode)
	}
	if string(bodyA) == string(bodyB) {
		t.Fatal("bodies identical across versions; test dataset variants must differ")
	}
	tagB := resp.Header.Get("ETag")
	if tagB == "" || tagB == tagA {
		t.Fatalf("post-reload tag %q, want a fresh tag != %q", tagB, tagA)
	}
	if want := ETagFor(snapB.Version(), "table5", nil); tagB != want {
		t.Fatalf("post-reload tag %q, ETagFor computes %q", tagB, want)
	}

	// The new tag now revalidates.
	if resp, _ = get(t, ts.URL, "/api/table5", tagB); resp.StatusCode != 304 {
		t.Fatalf("new tag: status %d, want 304", resp.StatusCode)
	}
}

// TestNoETagOnErrors: responses outside the cacheable 200 surface —
// unknown endpoints, invalid parameters — carry no ETag and never
// answer 304, even to If-None-Match: *.
func TestNoETagOnErrors(t *testing.T) {
	snap := newTestSnapshot(t, 3, 32)
	srv := New(Config{Snapshot: snap, Workers: 4})
	ts := httptest.NewServer(srv.mux)
	defer ts.Close()

	for _, path := range []string{
		"/api/country",         // missing required code=
		"/api/country?code=zz", // malformed code
		"/api/fig9?kind=bogus", // invalid enum
		"/api/country?code=XX", // unknown country (deterministic 404)
	} {
		resp, _ := get(t, ts.URL, path, "*")
		if resp.StatusCode == 200 || resp.StatusCode == 304 {
			t.Fatalf("%s: status %d, want an error status", path, resp.StatusCode)
		}
		if tag := resp.Header.Get("ETag"); tag != "" {
			t.Fatalf("%s: error response carries ETag %q", path, tag)
		}
	}
}

// TestETagForIsPure covers the offline half of the contract, which
// the daemon exec test relies on: canonicalization folds equivalent queries onto
// one tag, and non-canonicalizable queries produce no tag at all.
func TestETagForIsPure(t *testing.T) {
	if got := ETagFor("abc", "nope", nil); got != "" {
		t.Fatalf("unknown endpoint: tag %q, want empty", got)
	}
	if got := ETagFor("abc", "country", nil); got != "" {
		t.Fatalf("missing required param: tag %q, want empty", got)
	}
	a := ETagFor("abc", "fig9", nil)
	b := ETagFor("abc", "fig9", url.Values{"kind": {"registration"}})
	if a == "" || a != b {
		t.Fatalf("default application split tags: %q vs %q", a, b)
	}
	if c := ETagFor("abc", "fig9", url.Values{"kind": {"location"}}); c == a {
		t.Fatalf("distinct params share tag %q", a)
	}
	if d := ETagFor("def", "fig9", nil); d == a {
		t.Fatalf("distinct versions share tag %q", a)
	}
	if got := ETagFor("abc", "fig9", url.Values{"kind": {"bogus"}}); got != "" {
		t.Fatalf("invalid enum: tag %q, want empty", got)
	}
}
