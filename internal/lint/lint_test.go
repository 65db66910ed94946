package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fetch"
)

// fixtureDirs lists the fixture packages under testdata/src in stable
// order.
func fixtureDirs(t *testing.T) []string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no fixture packages under testdata/src")
	}
	sort.Strings(dirs)
	return dirs
}

// want is one expected diagnostic, parsed from a fixture comment of the
// form
//
//	… // want `regexp`
//
// on the offending line. Reasonless //lint:ignore directives implicitly
// expect a bad-ignore diagnostic on their own line.
type want struct {
	re      *regexp.Regexp
	matched bool
}

var badIgnoreWant = regexp.MustCompile(`^bad-ignore: malformed`)

// parseWants scans a fixture directory: file base name → line → wants.
func parseWants(t *testing.T, dir string) map[string]map[int][]*want {
	t.Helper()
	out := map[string]map[int][]*want{}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	const marker = "// want `"
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := map[int][]*want{}
		for i, line := range strings.Split(string(data), "\n") {
			lineno := i + 1
			if idx := strings.Index(line, marker); idx >= 0 {
				rest := line[idx+len(marker):]
				end := strings.Index(rest, "`")
				if end < 0 {
					t.Fatalf("%s:%d: unterminated want expectation", file, lineno)
				}
				lines[lineno] = append(lines[lineno], &want{re: regexp.MustCompile(rest[:end])})
			}
			trimmed := strings.TrimSpace(line)
			if strings.HasPrefix(trimmed, ignorePrefix) && parseIgnore(trimmed).bad != "" {
				lines[lineno] = append(lines[lineno], &want{re: badIgnoreWant})
			}
		}
		if len(lines) > 0 {
			out[filepath.Base(file)] = lines
		}
	}
	return out
}

// TestFixtures checks every fixture package against its in-source
// expectations: each diagnostic must be wanted, each want must fire,
// and every fixture must keep govlint red (the suppressed instances
// alone must not make it green).
func TestFixtures(t *testing.T) {
	for _, dir := range fixtureDirs(t) {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			runner, err := NewRunner(".")
			if err != nil {
				t.Fatal(err)
			}
			if err := runner.CheckDir(dir); err != nil {
				t.Fatal(err)
			}
			diags := runner.Diagnostics()
			if len(diags) == 0 {
				t.Fatalf("fixture %s produced no diagnostics; fixtures must keep govlint non-zero", dir)
			}
			wants := parseWants(t, dir)
			for _, d := range diags {
				got := d.Rule + ": " + d.Message
				ok := false
				for _, w := range wants[filepath.Base(d.File)][d.Line] {
					if !w.matched && w.re.MatchString(got) {
						w.matched = true
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for file, lines := range wants {
				for line, ws := range lines {
					for _, w := range ws {
						if !w.matched {
							t.Errorf("%s:%d: expected a diagnostic matching %q, got none", file, line, w.re)
						}
					}
				}
			}
		})
	}
}

// TestDeclaredKindsMatchAllKinds ties the failkind-switch rule's
// statically discovered taxonomy to fetch.AllKinds: if a PR adds a
// FailKind constant without extending AllKinds (or vice versa), this
// fails with the drift spelled out.
func TestDeclaredKindsMatchAllKinds(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(l.ModRoot, "internal", "fetch"))
	if err != nil {
		t.Fatal(err)
	}
	obj := pkg.Types.Scope().Lookup("FailKind")
	if obj == nil {
		t.Fatal("internal/fetch no longer declares FailKind")
	}
	named, ok := isFailKind(obj.Type())
	if !ok {
		t.Fatalf("FailKind resolved to %v, not the expected named type", obj.Type())
	}
	static := declaredKinds(named)
	runtime := map[string]bool{}
	for _, k := range fetch.AllKinds() {
		runtime[strconv.Quote(string(k))] = true
	}
	for val, name := range static {
		if !runtime[val] {
			t.Errorf("constant %s (%s) is declared but missing from fetch.AllKinds()", name, val)
		}
	}
	for val := range runtime {
		if _, ok := static[val]; !ok {
			t.Errorf("fetch.AllKinds() returns %s, which no declared constant carries", val)
		}
	}
	if len(static) != len(fetch.AllKinds()) {
		t.Errorf("declared %d kinds, AllKinds returns %d", len(static), len(fetch.AllKinds()))
	}
}

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text   string
		bad    bool
		rules  []string
		reason string
	}{
		{"//lint:ignore map-order -- consumer sorts", false, []string{"map-order"}, "consumer sorts"},
		{"//lint:ignore map-order,nondeterminism -- both intentional", false, []string{"map-order", "nondeterminism"}, "both intentional"},
		{"//lint:ignore map-order", true, nil, ""},
		{"//lint:ignore -- reason but no rules", true, nil, ""},
		{"//lint:ignore map-order --   ", true, nil, ""},
		{"//lint:ignore map-order\tnondeterminism\f-- any blank separates rules", false, []string{"map-order", "nondeterminism"}, "any blank separates rules"},
	}
	for _, c := range cases {
		d := parseIgnore(c.text)
		if (d.bad != "") != c.bad {
			t.Errorf("parseIgnore(%q): bad=%q, want bad=%v", c.text, d.bad, c.bad)
			continue
		}
		if c.bad {
			continue
		}
		if d.reason != c.reason {
			t.Errorf("parseIgnore(%q): reason %q, want %q", c.text, d.reason, c.reason)
		}
		for _, r := range c.rules {
			if !d.rules[r] {
				t.Errorf("parseIgnore(%q): rule %q not recorded", c.text, r)
			}
		}
	}
}

func TestJSONCleanIsEmptyArray(t *testing.T) {
	data, err := JSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[]" {
		t.Errorf("JSON(nil) = %q, want []", data)
	}
}
