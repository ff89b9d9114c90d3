package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// wallClockAllowed lists import-path prefixes where wall-clock time is
// legitimate: CLIs and the sweep engine report real elapsed time, and
// the cache stamps entries with a save date. Everything else in the
// module is simulation code, where the only admissible clock is the
// simulated cycle counter and the only admissible randomness is the
// seeded sim.RNG.
var wallClockAllowed = []string{
	"flov",                   // root API: reports wall-clock sweep duration
	"flov/cmd/",              // CLIs time their own runs
	"flov/examples/",         // example programs
	"flov/internal/sweep",    // engine wall timing + cache timestamps
	"flov/internal/analysis", // this tool
	"flov/internal/cluster",  // job plane: leases, deadlines, metrics, backoff are wall-clock by nature
	"flov/internal/cluster/", // ... and its subpackages (client)
}

// wallClockFuncs are the time-package functions that read the wall
// clock or real timers.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// NondetAnalyzer forbids ambient nondeterminism sources in simulation
// packages: the math/rand generators (global or not, they are not part
// of the seeded Job spec) and wall-clock time. Simulation code must
// draw randomness from sim.RNG and time from the cycle counter;
// violations make cached sweep rows and the equivalence tests
// meaningless.
var NondetAnalyzer = &Analyzer{
	Name: "nondeterm",
	Doc:  "forbid math/rand and wall-clock time in simulation packages",
	Run:  runNondet,
}

// nondetRestricted reports whether the package at path must be free of
// ambient nondeterminism.
func nondetRestricted(p *Pass) bool {
	if !p.InModule(p.Path) {
		return false
	}
	for _, allow := range wallClockAllowed {
		if strings.HasSuffix(allow, "/") {
			if strings.HasPrefix(p.Path, allow) {
				return false
			}
		} else if p.Path == allow {
			return false
		}
	}
	return true
}

func runNondet(p *Pass) {
	if !nondetRestricted(p) {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(), "simulation package imports %s; use the seeded sim.RNG instead", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkgPath, ok := selectorPackage(p, sel); ok && pkgPath == "time" && wallClockFuncs[sel.Sel.Name] {
				p.Reportf(sel.Pos(), "simulation package uses time.%s; simulated paths must use cycle time", sel.Sel.Name)
			}
			return true
		})
	}
}

// selectorPackage resolves pkg.Name selectors to the imported package
// path; ok is false when sel is not a package-qualified identifier.
func selectorPackage(p *Pass, sel *ast.SelectorExpr) (string, bool) {
	return selectorPkgPath(p.Info, sel)
}

// selectorPkgPath is selectorPackage over raw type information, shared
// with the module-wide call-graph builder.
func selectorPkgPath(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkgName, ok := info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pkgName.Imported().Path(), true
}
