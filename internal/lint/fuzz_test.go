package lint

import (
	"maps"
	"testing"
)

// FuzzParseIgnore holds the //lint:ignore parser to its laws on
// arbitrary comment text: it never panics, a directive is malformed
// exactly when it names no rule, and a well-formed directive rendered
// back into canonical form re-parses to the same rules and reason.
func FuzzParseIgnore(f *testing.F) {
	f.Add("//lint:ignore map-order -- consumer sorts")
	f.Add("//lint:ignore map-order,nondeterminism -- both intentional")
	f.Add("//lint:ignore\tmap-order  nondeterminism --reason -- with dashes")
	f.Add("//lint:ignore map-order")
	f.Add("//lint:ignore -- reason but no rules")
	f.Add("//lint:ignoremap-order -- x")
	f.Add("//lint:ignore")
	f.Add("// not a directive")
	f.Fuzz(func(t *testing.T, text string) {
		d := parseIgnore(text)
		if (d.bad != "") != (len(d.rules) == 0) {
			t.Fatalf("parseIgnore(%q): bad=%q with %d rules", text, d.bad, len(d.rules))
		}
		if d.bad != "" {
			return
		}
		again := ignorePrefix + " " + d.ruleList() + " -- " + d.reason
		r := parseIgnore(again)
		if r.bad != "" {
			t.Fatalf("re-rendered %q (from %q) is malformed: %s", again, text, r.bad)
		}
		if !maps.Equal(r.rules, d.rules) || r.reason != d.reason {
			t.Fatalf("re-rendered %q parses to rules %q reason %q, want %q %q (from %q)",
				again, r.ruleList(), r.reason, d.ruleList(), d.reason, text)
		}
	})
}

// TestParseIgnoreNeedsBlankAfterPrefix: //lint:ignoremap-order used to
// parse as a valid map-order suppression because the parser only
// trimmed the prefix. The prefix must now end at a blank or the end of
// the text, as the //lint:deterministic tag must.
func TestParseIgnoreNeedsBlankAfterPrefix(t *testing.T) {
	for _, text := range []string{
		"//lint:ignoremap-order -- x",
		"//lint:ignore,map-order -- x",
		"//lint:ignored map-order -- x",
	} {
		if d := parseIgnore(text); d.bad == "" {
			t.Errorf("parseIgnore(%q) accepted rules %q", text, d.ruleList())
		}
	}
	for _, text := range []string{
		"//lint:ignore map-order -- x",
		"//lint:ignore\tmap-order -- x",
	} {
		if d := parseIgnore(text); d.bad != "" || !d.rules["map-order"] {
			t.Errorf("parseIgnore(%q): bad=%q rules %q, want map-order", text, d.bad, d.ruleList())
		}
	}
}
