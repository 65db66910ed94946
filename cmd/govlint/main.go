// Command govlint mechanically enforces the repository's determinism
// and concurrency invariants with the stdlib-only static analyzer in
// internal/lint: per-package rules plus the whole-program
// determinism-taint analysis and the suppression audit.
//
//	go run ./cmd/govlint ./...                  # whole module (the tier-1 leg)
//	go run ./cmd/govlint ./internal/export ./internal/report
//	go run ./cmd/govlint -format json ./...     # machine-readable diagnostics
//	go run ./cmd/govlint -format sarif ./...    # SARIF 2.1.0 for CI upload
//	go run ./cmd/govlint -j 1 ./...             # serial package analysis
//	go run ./cmd/govlint -baseline lint.json ./...        # fail only on new findings
//	go run ./cmd/govlint -write-baseline lint.json ./...  # accept the current findings
//	go run ./cmd/govlint -rules                 # list every check
//
// Exit status: 0 clean (or fully baselined), 1 findings, 2 load/usage
// error. Intentional violations are suppressed in-source with
//
//	//lint:ignore rule-name -- reason
//
// on the offending line or the line directly above it; the same
// directive on a function declaration is a taint barrier for the
// determinism-taint rule. Stale directives are themselves findings.
//
//lint:deterministic
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/lint"
)

func main() {
	format := flag.String("format", "text", "output format: text, json or sarif")
	listRules := flag.Bool("rules", false, "list the checks and exit")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "package-analysis parallelism (1 = serial); findings are identical either way")
	baseline := flag.String("baseline", "", "baseline file (JSON diagnostics); findings already accepted there do not fail the run")
	writeBaseline := flag.String("write-baseline", "", "write the current findings to this baseline file and exit 0")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: govlint [-format text|json|sarif] [-j n] [-baseline file] [-write-baseline file] [-rules] ./... | <package dirs>\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	switch *format {
	case "text", "json", "sarif":
	default:
		fatal(fmt.Errorf("unknown -format %q (want text, json or sarif)", *format))
	}

	if *listRules {
		for _, d := range lint.Descriptors() {
			fmt.Printf("%-24s %s\n", d.Name, d.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	runner, err := lint.NewRunner(".")
	if err != nil {
		fatal(err)
	}
	dirs, err := targetDirs(runner, args)
	if err != nil {
		fatal(err)
	}
	if err := runner.CheckDirs(dirs, *workers); err != nil {
		fatal(err)
	}

	diags := runner.Diagnostics()

	if *writeBaseline != "" {
		data, err := lint.JSON(diags)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*writeBaseline, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "govlint: wrote %d finding(s) to baseline %s\n", len(diags), *writeBaseline)
		return
	}
	if *baseline != "" {
		base, err := lint.LoadBaseline(*baseline)
		if err != nil {
			fatal(err)
		}
		diags = lint.FilterBaseline(diags, base)
	}

	switch *format {
	case "json":
		data, err := lint.JSON(diags)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", data)
	case "sarif":
		data, err := lint.SARIF(diags)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", data)
	default:
		fmt.Print(lint.Text(diags))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// targetDirs expands the command-line arguments to the list of package
// directories to analyze, deduplicated in sorted order so one
// CheckDirs call covers everything.
func targetDirs(runner *lint.Runner, args []string) ([]string, error) {
	moduleDirs, err := runner.Loader.ModuleDirs()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			for _, dir := range moduleDirs {
				add(dir)
			}
		case strings.HasSuffix(arg, "/..."):
			root, err := filepath.Abs(strings.TrimSuffix(arg, "/..."))
			if err != nil {
				return nil, err
			}
			matched := false
			for _, dir := range moduleDirs {
				if dir == root || strings.HasPrefix(dir, root+string(filepath.Separator)) {
					add(dir)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("govlint: no packages under %s", root)
			}
		default:
			abs, err := filepath.Abs(arg)
			if err != nil {
				return nil, err
			}
			add(abs)
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "govlint:", err)
	os.Exit(2)
}
