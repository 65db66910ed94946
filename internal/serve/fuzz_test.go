package serve

import (
	"encoding/json"
	"maps"
	"net/url"
	"strings"
	"testing"

	"repro/internal/sched"
)

// FuzzETagMatch holds the If-None-Match matcher to its laws on
// arbitrary input: etagMatch never panics, an empty header never
// matches, and every non-empty tag ETagFor computes matches itself,
// its weak W/ form, and itself at any position of a comma list whose
// separators carry arbitrary whitespace. The fuzzed inputs are the
// tag's version, endpoint and raw query, a free-form header, and a
// whitespace pattern (its bytes pick from the RFC 9110 list blanks).
func FuzzETagMatch(f *testing.F) {
	f.Add("82d0f36c478f", "fig2", "", `"82d0f36c478f-0000000000000000"`, " \t")
	f.Add("82d0f36c478f", "fig9", "kind=location", "*", "")
	f.Add("abc", "country", "code=UY", `W/"abc", "def"`, "\t\t ")
	f.Add("", "matrix", "kind=bogus", "", " ")
	f.Fuzz(func(t *testing.T, version, name, rawQuery, header, pad string) {
		q, _ := url.ParseQuery(rawQuery)
		tag := ETagFor(version, name, q)
		etagMatch(header, tag)
		if etagMatch("", tag) {
			t.Fatalf("empty header matched tag %q", tag)
		}
		if tag == "" {
			return
		}
		ws := blanks(pad)
		other := ETagFor(version+"x", name, q)
		for _, h := range []string{
			tag,
			"W/" + tag,
			ws + tag + ws,
			tag + ws + "," + ws + other,
			other + ws + "," + ws + "W/" + tag + ws + "," + ws + other,
			other + "," + ws + tag,
		} {
			if !etagMatch(h, tag) {
				t.Fatalf("header %q does not match its own tag %q", h, tag)
			}
		}
	})
}

// blanks maps each byte of pad onto the optional whitespace RFC 9110
// allows around list elements (space or horizontal tab).
func blanks(pad string) string {
	var b strings.Builder
	for i := 0; i < len(pad); i++ {
		b.WriteByte(" \t"[pad[i]&1])
	}
	return b.String()
}

// TestETagMatchCommaInTag is the first FuzzETagMatch counterexample
// (corpus entry comma-in-version): a version holding a comma gave a
// tag that the old split-on-commas matcher cut in two, so the tag did
// not match itself. The matcher now reads each quoted tag whole, and
// ETagFor refuses versions a quoted tag cannot carry.
func TestETagMatchCommaInTag(t *testing.T) {
	tag := ETagFor(",", "country", url.Values{"code": {"0"}})
	if tag == "" {
		t.Fatal("comma version: no tag")
	}
	for _, h := range []string{tag, "W/" + tag, `"a", ` + tag + `, "b"`} {
		if !etagMatch(h, tag) {
			t.Errorf("header %q does not match its own tag %q", h, tag)
		}
	}
	if etagMatch(`"`+tag[1:3]+`"`, tag) {
		t.Errorf("a fragment of %q matched it", tag)
	}
	for _, v := range []string{`a"b`, "a b", "a\tb", "a\x7fb", "a\x00b"} {
		if got := ETagFor(v, "fig2", nil); got != "" {
			t.Errorf("version %q: tag %q, want none", v, got)
		}
	}
}

// FuzzRender holds parameter parsing to its contract on arbitrary raw
// queries: every endpoint renders the query through Snapshot.Render
// without panicking and answers 200, 400 or 404; a 400 body names the
// offending field; and canonicalParams is idempotent on what it
// accepts — the canonical map, fed back in as a query, canonicalizes
// to itself.
func FuzzRender(f *testing.F) {
	f.Add("")
	f.Add("kind=location")
	f.Add("kind=bogus")
	f.Add("code=US")
	f.Add("code=XX&kind=registration")
	f.Add("code=&extra=1")
	f.Add("kind=location&kind=registration")
	f.Add("%zz=1&code=%55S")
	snap, err := NewSnapshotWorkers(testDataset(1, 64), "fuzz", 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		q, _ := url.ParseQuery(rawQuery)
		for i := range endpoints {
			ep := &endpoints[i]
			body, status := snap.Render(ep.name, q)
			switch status {
			case 200, 404:
			case 400:
				var env errorEnvelope
				if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Field == "" {
					t.Fatalf("%s?%s: 400 body names no field: %s", ep.name, rawQuery, body)
				}
			default:
				t.Fatalf("%s?%s: status %d: %s", ep.name, rawQuery, status, body)
			}
			params, aerr := canonicalParams(ep, q)
			if aerr != nil {
				continue
			}
			again := url.Values{}
			for k, v := range params {
				again.Set(k, v)
			}
			if p2, aerr := canonicalParams(ep, again); aerr != nil || !maps.Equal(p2, params) {
				t.Fatalf("%s?%s: canonical params %v re-canonicalize to %v (%v)", ep.name, rawQuery, params, p2, aerr)
			}
		}
		// The single-flight cache keeps every accepted country code;
		// drop it now and then so a long run stays small.
		if snap.cache.Len() > 4096 {
			snap.cache = sched.Memo[string, response]{}
		}
	})
}

// TestRenderIgnoresNamelessParam is the first FuzzRender counterexample
// (corpus entry nameless-param): "?=" reached the unknown-parameter
// rejection with an empty key, so its 400 body named no field. A
// nameless pair is now ignored: the response, and its ETag, equal the
// query-less ones.
func TestRenderIgnoresNamelessParam(t *testing.T) {
	snap := newTestSnapshot(t, 1, 64)
	q := url.Values{"": {"x"}}
	for _, name := range []string{"fig2", "fig9"} {
		want, _ := snap.Render(name, nil)
		got, status := snap.Render(name, q)
		if status != 200 || string(got) != string(want) {
			t.Errorf("%s?=x: status %d body %s, want 200 %s", name, status, got, want)
		}
		if ETagFor(snap.Version(), name, q) != ETagFor(snap.Version(), name, nil) {
			t.Errorf("%s?=x: ETag differs from the query-less one", name)
		}
	}
}
