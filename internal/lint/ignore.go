package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"unicode"
)

// ignoreDirective is one parsed //lint:ignore comment. It suppresses
// the named rules on its own line and on the line directly below it —
// i.e. it is written either at the end of the offending line or on the
// line immediately above the offending statement. Placed on (or above)
// a function declaration with the determinism-taint rule named, it is
// a taint barrier: the function declares that its wall-clock, rand or
// map-order effects never reach deterministic output, and callers in
// deterministic packages are not flagged for reaching it.
//
// Every directive is audited: one that suppresses no live finding (and
// bars no live taint) is itself reported stale, so suppressions cannot
// rot as the code around them changes.
type ignoreDirective struct {
	line   int
	rules  map[string]bool
	reason string
	bad    string // non-empty when the directive is malformed
	used   bool   // set when the directive suppressed a finding or barred live taint
}

// ruleList renders the directive's rule names sorted, for stable
// diagnostics.
func (d *ignoreDirective) ruleList() string {
	names := make([]string, 0, len(d.rules))
	for r := range d.rules {
		names = append(names, r)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

const (
	ignorePrefix = "//lint:ignore"
	// deterministicTag opts a package into the deterministic-output
	// rule scope (nondeterminism + map-order + determinism-taint)
	// without editing the central list in rules.go; used by new
	// deterministic-path packages, the cmd/examples mains and the lint
	// fixtures.
	deterministicTag = "//lint:deterministic"
)

// parseIgnore parses the text of one //lint:ignore comment:
//
//	//lint:ignore rule1,rule2 -- reason
//
// The reason is mandatory: a suppression that does not say why the
// violation is intentional is itself a diagnostic. The prefix must end
// at a blank or the end of the text, as the //lint:deterministic tag
// must: //lint:ignoremap-order is malformed, not a map-order
// suppression.
func parseIgnore(text string) ignoreDirective {
	rest, ok := strings.CutPrefix(text, ignorePrefix)
	if !ok {
		return ignoreDirective{bad: "not an ignore directive"}
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return ignoreDirective{bad: "no blank after " + ignorePrefix}
	}
	rest = strings.TrimSpace(rest)
	ruleList, reason, ok := strings.Cut(rest, "--")
	if !ok || strings.TrimSpace(reason) == "" {
		return ignoreDirective{bad: "missing '-- reason'"}
	}
	d := ignoreDirective{rules: map[string]bool{}, reason: strings.TrimSpace(reason)}
	for _, r := range strings.FieldsFunc(ruleList, func(c rune) bool { return c == ',' || unicode.IsSpace(c) }) {
		d.rules[r] = true
	}
	if len(d.rules) == 0 {
		return ignoreDirective{bad: "no rule names before '--'"}
	}
	return d
}

// collectIgnores gathers every //lint:ignore directive per file.
func collectIgnores(fset *token.FileSet, files []*ast.File) map[string][]*ignoreDirective {
	out := map[string][]*ignoreDirective{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				d := parseIgnore(c.Text)
				d.line = pos.Line
				out[pos.Filename] = append(out[pos.Filename], &d)
			}
		}
	}
	return out
}

// collectDetTags returns the position of every //lint:deterministic
// tag of the package, in (file, line) order. One tag opts the package
// in; the suppression audit reports any further tags as redundant.
func collectDetTags(fset *token.FileSet, files []*ast.File) []token.Position {
	var tags []token.Position
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if text, _, _ := strings.Cut(c.Text, " "); text == deterministicTag {
					tags = append(tags, fset.Position(c.Pos()))
				}
			}
		}
	}
	sort.Slice(tags, func(i, j int) bool {
		if tags[i].Filename != tags[j].Filename {
			return tags[i].Filename < tags[j].Filename
		}
		return tags[i].Line < tags[j].Line
	})
	return tags
}

// suppressed reports whether a diagnostic of rule at pos is covered by
// an ignore directive (same line or the line above) and marks the
// covering directive used.
func (p *Package) suppressed(pos token.Position, rule string) bool {
	if d := p.suppressor(pos, rule); d != nil {
		d.used = true
		return true
	}
	return false
}

// suppressor returns the directive covering a diagnostic of rule at
// pos, or nil, without marking it used.
func (p *Package) suppressor(pos token.Position, rule string) *ignoreDirective {
	for _, d := range p.ignores[pos.Filename] {
		if d.bad != "" {
			continue
		}
		if (d.line == pos.Line || d.line == pos.Line-1) && d.rules[rule] {
			return d
		}
	}
	return nil
}
