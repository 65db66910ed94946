package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// The test-only-export pass keeps production code honest about who
// uses it. An exported function or method of an internal package that
// no non-test file of the program references is an API only tests
// call: a second implementation beside the one the program runs, or a
// convenience that rots because nothing real depends on it. Reference
// implementations belong in _test.go files, where the tests that use
// them as an oracle live; the rest should go.
//
// It is a whole-program pass run from Finish. A checked package is in
// scope when it lies under its program's internal/ directory. The
// program is every package under the module root (ModuleDirs: cmd/,
// examples/ and bench/ included) whichever directories were targeted,
// so a subset run reports for a package exactly what ./... reports for
// it. A lint fixture under testdata/src/<name> stands in for a module
// of its own: its program is the fixture tree.
//
// A method is exempt when its name belongs to an interface method set
// visible to the program (error, fmt.Stringer, http.Handler, any
// interface a loaded package declares or spells out): such methods are
// called through the interface, which no static reference shows. An
// export that exists for another package's test carries
//
//	//lint:ignore test-only-export -- <the test that needs it>
//
// on its declaration, and the suppression audit keeps the directive
// honest once a real caller appears.

const (
	testOnlyRuleName = "test-only-export"
	testOnlyRuleDoc  = "an exported function or method of an internal package must have a caller outside tests; move reference code into _test.go files"
)

// errorsProtocol names the methods the errors package calls through
// interfaces it spells inline, which no package scope declares.
var errorsProtocol = []string{"Unwrap", "Is", "As"}

// testOnlyProgram is the reference universe of one program root.
type testOnlyProgram struct {
	refs      map[*types.Func]bool // every function a non-test file references
	ifaceMeth map[string]bool      // every interface method name visible to the program
}

// reportTestOnly flags the exported functions and methods of checked
// in-scope packages that their program never references outside tests.
func (r *Runner) reportTestOnly() {
	programs := map[string]*testOnlyProgram{}
	for _, pkg := range r.checkedPackages() {
		root := r.programRoot(pkg.Dir)
		rel, err := filepath.Rel(root, pkg.Dir)
		if err != nil || (rel != "internal" && !strings.HasPrefix(rel, "internal"+string(filepath.Separator))) {
			continue
		}
		prog := programs[root]
		if prog == nil {
			prog = r.loadProgram(root)
			programs[root] = prog
		}
		rep := &Reporter{runner: r, pkg: pkg, rule: testOnlyRuleName}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fobj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fobj == nil || prog.refs[fobj] || (fd.Recv != nil && prog.ifaceMeth[fobj.Name()]) {
					continue
				}
				rep.Reportf(fd.Name.Pos(), "%s has no caller outside tests; move it into a _test.go file or delete it", displayName(fobj))
			}
		}
	}
}

// programRoot returns the root of the program dir belongs to: the
// fixture directory for a package under testdata/src/<name>, else the
// module root.
func (r *Runner) programRoot(dir string) string {
	parts := strings.Split(filepath.ToSlash(dir), "/")
	for i := len(parts) - 3; i >= 0; i-- {
		if parts[i] == "testdata" && parts[i+1] == "src" {
			return filepath.FromSlash(strings.Join(parts[:i+3], "/"))
		}
	}
	return r.Loader.ModRoot
}

// loadProgram loads every package under root and indexes what their
// non-test files reference. A package that fails to load contributes
// no references; the per-package phase of a ./... run reports the
// failure itself.
func (r *Runner) loadProgram(root string) *testOnlyProgram {
	prog := &testOnlyProgram{refs: map[*types.Func]bool{}, ifaceMeth: map[string]bool{"Error": true}}
	for _, name := range errorsProtocol {
		prog.ifaceMeth[name] = true
	}
	dirs, _ := packageDirs(root)
	seen := map[*types.Package]bool{}
	for _, dir := range dirs {
		pkg, err := r.Loader.LoadDir(dir)
		if err != nil {
			continue
		}
		for _, obj := range pkg.Info.Uses {
			if f, ok := obj.(*types.Func); ok {
				prog.refs[f.Origin()] = true
			}
		}
		for _, sel := range pkg.Info.Selections {
			if f, ok := sel.Obj().(*types.Func); ok {
				prog.refs[f.Origin()] = true
			}
		}
		// The method loop is inlined: a call in a map range reads as
		// an order leak to the taint pass.
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					prog.ifaceMeth[it.Method(i).Name()] = true
				}
			}
		}
		prog.addScopes(pkg.Types, seen)
	}
	return prog
}

// addScopes records the interface methods declared at package scope in
// p and, transitively, in everything it imports.
func (prog *testOnlyProgram) addScopes(p *types.Package, seen map[*types.Package]bool) {
	if seen[p] {
		return
	}
	seen[p] = true
	scope := p.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				prog.ifaceMeth[it.Method(i).Name()] = true
			}
		}
	}
	for _, imp := range p.Imports() {
		prog.addScopes(imp, seen)
	}
}
