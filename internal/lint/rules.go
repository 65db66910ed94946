package lint

import (
	"go/ast"
	"go/types"
)

// DefaultRules returns the repo rule set in stable order.
func DefaultRules() []Rule {
	return []Rule{
		nondeterminismRule{},
		mapOrderRule{},
		schedulerBypassRule{},
		contextCancelRule{},
		failKindRule{},
	}
}

// deterministicPkgs are the deterministic-output packages: everything
// they emit (worlds, estates, datasets, exports, reports, the
// deterministic half of metric snapshots) must be a pure function of
// the study seed, so wall-clock reads, the global math/rand stream and
// unsorted map iteration are forbidden there. New deterministic-path
// packages join the invariant by being added here — or by carrying a
// //lint:deterministic tag in any of their files.
var deterministicPkgs = map[string]bool{
	"repro":                     true, // experiment reports and the Study facade
	"repro/internal/world":      true,
	"repro/internal/webgen":     true,
	"repro/internal/dataset":    true,
	"repro/internal/export":     true,
	"repro/internal/jsonrec":    true, // decoded records must be a pure function of the input bytes
	"repro/internal/report":     true,
	"repro/internal/metrics":    true, // the deterministic snapshot half is golden-compared
	"repro/internal/checkpoint": true, // stored bytes must be seed-deterministic for resume identity
	"repro/internal/shard":      true, // the country partition and backoff schedule feed assembly identity; supervisor wall-clock waits carry reasoned ignores
	"repro/internal/rng":        true,
	"repro/internal/analysis":   true,
	"repro/internal/stats":      true,
	"repro/internal/serve":      true, // response bodies are pure functions of (version, endpoint, params); latency timestamps carry reasoned ignores
	"repro/internal/cluster":    true,
	"repro/internal/govclass":   true,
	"repro/internal/har":        true,
	"repro/internal/geo":        true,
	"repro/internal/probing":    true, // verdicts and the verdict caches feed golden Table 4
	"repro/internal/netsim":     true, // simulated RTTs feed the geolocation verdicts of golden Table 4
	"repro/internal/tlssim":     true, // SAN lookups must not depend on the order certificates were put
}

// goAllowedPkgs may start goroutines directly: the scheduler itself,
// and the socket servers whose accept loops necessarily spawn per
// connection. Everything else must flow through sched.Pool (or
// sched.Workers) so pipeline concurrency stays within the configured
// goroutine budget. Test files are excluded from analysis entirely,
// so tests are implicitly allowed.
var goAllowedPkgs = map[string]bool{
	"repro/internal/sched":    true,
	"repro/internal/webserve": true,
	"repro/internal/dnswire":  true,
}

// isDeterministic reports whether pkg is under the deterministic-output
// invariant.
func isDeterministic(pkg *Package) bool {
	return deterministicPkgs[pkg.Path] || len(pkg.detTags) > 0
}

// isGoAllowed reports whether pkg may use naked go statements.
func isGoAllowed(pkg *Package) bool {
	return goAllowedPkgs[pkg.Path]
}

// calleeFunc resolves the called function object of a call expression,
// or nil. It sees through parentheses; conversions and method values
// yield nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// funcBodies yields every function body in the package — declarations
// and literals — with the enclosing FuncDecl name for messages.
func funcBodies(pkg *Package, fn func(name string, body *ast.BlockStmt)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			fn(name, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					fn(name+" (func literal)", lit.Body)
				}
				return true
			})
		}
	}
}

// shortType renders a type with bare package names for diagnostics.
func shortType(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
