// Package lint is a self-contained static-analysis engine that
// mechanically enforces this repository's determinism and concurrency
// invariants: the headline guarantee that equal seeds produce
// byte-identical datasets, exports and deterministic metric snapshots
// at any concurrency shape. The chaos suite checks those properties
// dynamically for the packages it happens to exercise; the analyzer
// checks the source of every package on every run, so a future PR
// cannot quietly reintroduce a wall-clock read, an unsorted map
// iteration or an unbudgeted goroutine.
//
// The engine runs in two phases. Per-package rules (see Rule) inspect
// one type-checked package at a time — optionally in parallel on a
// sched.Workers team, with the report order deterministic either way.
// After every requested package has been checked, the whole-program
// phase builds per-function taint summaries over a call graph spanning
// all loaded packages, propagates them to a fixed point, reports
// deterministic packages that call transitively tainted helpers with
// the full call chain in the diagnostic (see summary.go), flags
// exported internal functions that only tests call (see
// rule_testonly.go), and finally audits every suppression directive
// for staleness (see audit.go).
//
// The engine is built exclusively on the standard library's go/ast,
// go/parser and go/types (the module has zero dependencies and the
// build environment is offline); stdlib imports are type-checked from
// GOROOT source. Diagnostics carry file:line positions, and
// intentional violations are suppressed in-source with
//
//	//lint:ignore rule-name -- reason
//
// on the offending line or the line directly above it. The reason is
// mandatory, and a directive that suppresses nothing is itself an
// error. Run it as `go run ./cmd/govlint ./...`.
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// Diagnostic is one finding, positioned and attributable to a rule.
type Diagnostic struct {
	File    string `json:"file"` // module-relative path
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Rule is one invariant check. Check inspects a type-checked package
// and reports findings through report; suppression, sorting and
// rendering are the engine's job.
type Rule interface {
	Name() string
	Doc() string
	Check(pkg *Package, r *Reporter)
}

// Descriptor names and documents one check of the engine — the
// pluggable per-package rules plus the engine-level passes (taint,
// directive audit) that are not Rule values. SARIF output and the
// -rules listing are driven by this.
type Descriptor struct {
	Name string
	Doc  string
}

// Descriptors returns every check the engine can report, in stable
// order: the default rules first, then the engine passes.
func Descriptors() []Descriptor {
	var out []Descriptor
	for _, r := range DefaultRules() {
		out = append(out, Descriptor{Name: r.Name(), Doc: r.Doc()})
	}
	out = append(out,
		Descriptor{Name: taintRuleName, Doc: taintRuleDoc},
		Descriptor{Name: testOnlyRuleName, Doc: testOnlyRuleDoc},
		Descriptor{Name: "bad-ignore", Doc: "a //lint:ignore directive must name rules and carry a '-- reason'"},
		Descriptor{Name: "stale-ignore", Doc: "every //lint:ignore must suppress a live finding or bar live taint; stale directives must be deleted"},
		Descriptor{Name: "stale-deterministic-tag", Doc: "a //lint:deterministic tag must not duplicate another tag or the central deterministicPkgs list"},
	)
	return out
}

// Reporter collects diagnostics for one (package, rule) pass.
type Reporter struct {
	runner *Runner
	pkg    *Package
	rule   string
}

// Reportf records a diagnostic at pos unless an ignore directive
// covers it.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	position := r.runner.Loader.Fset.Position(pos)
	if r.pkg.suppressed(position, r.rule) {
		return
	}
	r.runner.record(Diagnostic{
		File:    r.runner.relPath(position.Filename),
		Line:    position.Line,
		Col:     position.Column,
		Rule:    r.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Runner drives a rule set over packages and accumulates diagnostics.
// Per-package checks may run concurrently (CheckDirs with workers > 1);
// the whole-program taint phase and the suppression audit run once,
// serially, when Finish (or Diagnostics) is called.
type Runner struct {
	Loader *Loader
	Rules  []Rule

	mu       sync.Mutex
	diags    []Diagnostic
	checked  map[string]*Package
	finished bool
}

// NewRunner builds a runner with the default rule set for the module
// containing dir.
func NewRunner(dir string) (*Runner, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	return &Runner{Loader: l, Rules: DefaultRules(), checked: map[string]*Package{}}, nil
}

// record appends one diagnostic under the runner lock.
func (r *Runner) record(d Diagnostic) {
	r.mu.Lock()
	r.diags = append(r.diags, d)
	r.mu.Unlock()
}

// relPath renders filename relative to the module root.
func (r *Runner) relPath(filename string) string {
	rel, err := filepath.Rel(r.Loader.ModRoot, filename)
	if err != nil {
		rel = filename
	}
	return filepath.ToSlash(rel)
}

// CheckDir loads the package in dir and runs every per-package rule
// over it.
func (r *Runner) CheckDir(dir string) error {
	pkg, err := r.Loader.LoadDir(dir)
	if err != nil {
		return err
	}
	r.checkPackage(pkg)
	return nil
}

// CheckDirs runs the per-package rules over every listed directory on
// a team of workers goroutines (1 = serial). Findings are identical to
// a serial run: the loader shares packages behind futures, every
// package is checked by exactly one worker, and Diagnostics sorts the
// merged findings into (file, line, col, rule) order regardless of
// which worker produced them.
func (r *Runner) CheckDirs(dirs []string, workers int) error {
	if workers < 1 {
		workers = 1
	}
	if workers > len(dirs) {
		workers = len(dirs)
	}
	if workers <= 1 {
		for _, dir := range dirs {
			if err := r.CheckDir(dir); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(dirs))
	var next atomic.Int64
	wait := sched.Workers(workers, func(int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(dirs) {
				return
			}
			errs[i] = r.CheckDir(dirs[i])
		}
	})
	wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *Runner) checkPackage(pkg *Package) {
	r.mu.Lock()
	if _, dup := r.checked[pkg.Path]; dup {
		r.mu.Unlock()
		return
	}
	r.checked[pkg.Path] = pkg
	r.mu.Unlock()
	for _, rule := range r.Rules {
		rule.Check(pkg, &Reporter{runner: r, pkg: pkg, rule: rule.Name()})
	}
	r.checkDirectives(pkg)
}

// checkDirectives flags malformed //lint:ignore comments: a
// suppression without a reason must not silently suppress.
func (r *Runner) checkDirectives(pkg *Package) {
	files := make([]string, 0, len(pkg.ignores))
	for file := range pkg.ignores {
		files = append(files, file)
	}
	sort.Strings(files)
	for _, file := range files {
		for _, d := range pkg.ignores[file] {
			if d.bad == "" {
				continue
			}
			r.record(Diagnostic{
				File: r.relPath(file), Line: d.line, Col: 1,
				Rule:    "bad-ignore",
				Message: fmt.Sprintf("malformed //lint:ignore directive: %s (want //lint:ignore rule -- reason)", d.bad),
			})
		}
	}
}

// checkedPackages returns the packages the per-package phase ran over,
// sorted by import path.
func (r *Runner) checkedPackages() []*Package {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Package, 0, len(r.checked))
	for _, pkg := range r.checked {
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Finish runs the whole-program phases over everything checked so far:
// the interprocedural determinism-taint analysis (summaries over all
// loaded packages, reported into the checked deterministic packages)
// and then the suppression audit. It is idempotent; Diagnostics calls
// it automatically. No further Check calls may follow.
func (r *Runner) Finish() {
	r.mu.Lock()
	if r.finished {
		r.mu.Unlock()
		return
	}
	r.finished = true
	r.mu.Unlock()
	sums := buildSummaries(r.Loader)
	propagate(sums)
	r.reportTaint(sums)
	r.reportTestOnly()
	r.auditSuppressions()
}

// Diagnostics completes the analysis (Finish) and returns the
// accumulated findings, deterministically ordered (file, line, column,
// rule) and deduplicated.
func (r *Runner) Diagnostics() []Diagnostic {
	r.Finish()
	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i], r.diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	out := r.diags[:0]
	for i, d := range r.diags {
		if i == 0 || d != r.diags[i-1] {
			out = append(out, d)
		}
	}
	r.diags = out
	return out
}

// Text renders diagnostics one per line, golden-diffable.
func Text(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

// JSON renders diagnostics as an indented JSON array for machine
// consumption ([] rather than null when clean).
func JSON(diags []Diagnostic) ([]byte, error) {
	if diags == nil {
		diags = []Diagnostic{}
	}
	return json.MarshalIndent(diags, "", "  ")
}
