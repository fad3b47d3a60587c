// Package timebasecheck implements the insanevet rule routing all time
// reads through internal/timebase.
//
// The reproduction reports the paper's µs-scale latencies in virtual
// time: every packet carries a virtual clock, a timebase.Breakdown, and
// hot-path components add calibrated model costs to its Fig. 6 stages
// instead of sampling the wall clock, so experiments are deterministic
// (see internal/timebase). A stray time.Now() or time.Since() inside the
// runtime either perturbs the measurements or — under the simulated
// clock — silently compares virtual and wall time. The rule flags direct time.Now/time.Since/
// time.Until calls in the packages that sit on the datapath
// (internal/core, internal/sched, internal/datapath); they read the
// configured timebase.Clock instead.
//
// Test files are exempt (the loader never feeds them to analyzers), and
// internal/timebase itself is where the sanctioned time.Now calls live.
package timebasecheck

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/insane-mw/insane/internal/lint/analysis"
)

// Analyzer is the timebase rule. Its published name is "timebase"
// (matching the suppression directive `insanevet/timebase`); the
// package is named timebasecheck only to avoid colliding with
// internal/timebase in driver imports.
var Analyzer = &analysis.Analyzer{
	Name: "timebase",
	Doc:  "flag direct time.Now/time.Since in datapath packages; read time via internal/timebase",
	Run:  run,
}

// LintedPaths are the import-path fragments (complete path segments)
// whose packages must not read the clock directly.
var LintedPaths = []string{
	"internal/core",
	"internal/sched",
	"internal/datapath",
}

// banned is the set of clock-sampling functions of package time.
var banned = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.Pass) (interface{}, error) {
	if !linted(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !banned[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !isPkgName(pass, id, "time") {
				return true
			}
			pass.Reportf(call.Pos(), "time.%s in %s: read time via the runtime's timebase.Clock", sel.Sel.Name, pass.Pkg.Path())
			return true
		})
	}
	return nil, nil
}

// isPkgName reports whether id resolves to the imported package with
// the given path.
func isPkgName(pass *analysis.Pass, id *ast.Ident, path string) bool {
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// linted reports whether the package path contains one of LintedPaths
// as a run of complete segments.
func linted(path string) bool {
	padded := "/" + path + "/"
	for _, p := range LintedPaths {
		if strings.Contains(padded, "/"+p+"/") {
			return true
		}
	}
	return false
}
