package serve

import (
	"net/url"
	"strings"
	"testing"
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
