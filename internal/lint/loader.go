package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one fully type-checked module package, ready for rules.
type Package struct {
	Path  string // import path, e.g. "repro/internal/fetch"
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	ignores map[string][]*ignoreDirective // filename -> directives
	detTags []token.Position              // //lint:deterministic opt-in tags, (file, line) order
}

// Loader loads and type-checks packages of one module using only the
// standard library: module packages are parsed from source under the
// module root, standard-library imports are type-checked from GOROOT
// source by go/importer's "source" compiler (no export data, no
// network, no golang.org/x/tools).
//
// The loader is safe for concurrent use: each package is loaded
// exactly once behind a future, so parallel workers loading disjoint
// packages share their transitive dependencies instead of re-checking
// them. The stdlib source importer is not itself concurrency-safe and
// is serialized behind its own mutex; module packages type-check in
// parallel around it.
type Loader struct {
	Fset    *token.FileSet
	ModPath string // module path from go.mod
	ModRoot string // absolute module root

	std   types.Importer
	stdMu sync.Mutex

	mu   sync.Mutex
	pkgs map[string]*pkgFuture // by import path
}

// pkgFuture is the once-only slot for one package: the goroutine that
// creates it completes it; everyone else waits on done.
type pkgFuture struct {
	done chan struct{}
	pkg  *Package
	err  error
}

// buildNoCgo forces CgoEnabled off exactly once for the process: the
// source importer re-type-checks stdlib packages from $GOROOT/src, and
// cgo-tainted variants (net, os/user) would shell out to the cgo tool;
// the pure-Go fallbacks type-check identically for our purposes.
var buildNoCgo sync.Once

// NewLoader locates the enclosing module from dir (walking up to the
// nearest go.mod) and prepares a loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	buildNoCgo.Do(func() {
		ctxt := build.Default
		ctxt.CgoEnabled = false
		build.Default = ctxt
	})
	return &Loader{
		Fset:    fset,
		ModPath: modPath,
		ModRoot: root,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*pkgFuture{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer, dispatching module-internal paths
// to the source loader and everything else to the stdlib importer.
// Module imports are pre-loaded before type-checking starts (see
// load), so this is a cache hit on the happy path.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.isModulePath(path) {
		pkg, err := l.load(path, nil)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}

// isModulePath reports whether path names a package of this module.
func (l *Loader) isModulePath(path string) bool {
	return path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/")
}

// dirFor maps a module import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.ModPath {
		return l.ModRoot
	}
	rel := strings.TrimPrefix(path, l.ModPath+"/")
	return filepath.Join(l.ModRoot, filepath.FromSlash(rel))
}

// pathFor maps a directory under the module root to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModRoot)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir loads (and memoizes) the package in one directory.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, err := l.pathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path, nil)
}

// Loaded returns every module package the loader has successfully
// loaded so far — the checked packages plus their transitive module
// dependencies — sorted by import path. The whole-program passes
// (taint summaries) run over this set.
func (l *Loader) Loaded() []*Package {
	l.mu.Lock()
	defer l.mu.Unlock()
	paths := make([]string, 0, len(l.pkgs))
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var out []*Package
	for _, path := range paths {
		fut := l.pkgs[path]
		select {
		case <-fut.done:
			if fut.err == nil {
				out = append(out, fut.pkg)
			}
		default:
			// still loading (caller's responsibility to sequence; the
			// Runner only calls Loaded after all checks completed)
		}
	}
	return out
}

// load returns the memoized package for path, loading it on first
// request. stack is the current goroutine's in-progress import chain
// for cycle detection; concurrent loads of the same package wait on
// the first loader's future. (A true import cycle split across two
// goroutines could deadlock instead of erroring, but Go rejects import
// cycles at build time, so only the single-goroutine detection below
// is reachable in practice.)
func (l *Loader) load(path string, stack []string) (*Package, error) {
	for _, s := range stack {
		if s == path {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
	}
	l.mu.Lock()
	if fut, ok := l.pkgs[path]; ok {
		l.mu.Unlock()
		<-fut.done
		return fut.pkg, fut.err
	}
	fut := &pkgFuture{done: make(chan struct{})}
	l.pkgs[path] = fut
	l.mu.Unlock()
	fut.pkg, fut.err = l.loadUncached(path, append(stack, path))
	close(fut.done)
	return fut.pkg, fut.err
}

// loadUncached parses and type-checks one module package. Test files
// are excluded: the invariants guard production pipeline code, and
// test packages are exempt by design (see the scheduler-bypass
// allowlist). Module-internal imports are loaded (through the shared
// futures) before type-checking begins, so the type-checker's Import
// calls never block behind this goroutine's own work.
func (l *Loader) loadUncached(path string, stack []string) (*Package, error) {
	dir := l.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	for _, imp := range moduleImports(l, files) {
		if _, err := l.load(imp, stack); err != nil {
			return nil, err
		}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil && len(typeErrs) == 0 {
		typeErrs = append(typeErrs, err)
	}
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}

	return &Package{
		Path:    path,
		Dir:     dir,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		ignores: collectIgnores(l.Fset, files),
		detTags: collectDetTags(l.Fset, files),
	}, nil
}

// moduleImports collects the module-internal import paths of files, in
// sorted order, for dependency pre-loading.
func moduleImports(l *Loader, files []*ast.File) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[p] || !l.isModulePath(p) {
				continue
			}
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// ModuleDirs returns every package directory of the module in sorted
// order, skipping testdata, hidden directories and dependency-free
// zones that hold no Go files.
func (l *Loader) ModuleDirs() ([]string, error) {
	return packageDirs(l.ModRoot)
}

// packageDirs returns every package directory under root in sorted
// order, by ModuleDirs' rules.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(p)
		if p != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		hasGo := false
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				hasGo = true
				break
			}
		}
		if hasGo {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
