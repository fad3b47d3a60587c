// Package hotpathcheck proves, at compile time, that the INSANE hot
// path is allocation- and blocking-free.
//
// The runtime's zero-alloc contract (DESIGN.md §7) was previously
// enforced only by sampled runtime gates (TestSteadyStateZeroAlloc),
// which cover one warm path and are skipped under -race. This analyzer
// turns the contract into a whole-program property: every function
// reachable from an annotated hot-path root must be free of heap
// allocation, blocking and calls into unproven code.
//
// Roots are declared with a directive on the function declaration:
//
//	//insane:hotpath              — allocation- and blocking-free root
//	//insane:hotpath allow=block  — root that is allowed to block
//	                                (Consume-style waits), but not to
//	                                allocate
//
// The same //insane:hotpath directive on an *interface method*
// declares a trusted boundary: implementations are vetted where they
// are defined, so calls through the method are not flagged as unknown.
//
// A cold control-plane function reachable from a hot root is excluded
// wholesale with:
//
//	//insane:coldpath <reason>
//
// which stops traversal at its boundary (the call itself stays legal;
// the body is not scanned). Individual findings are waived line by
// line with the standard suppression directive:
//
//	//lint:ignore insanevet/hotpathcheck <reason>
//
// Findings carry one of three severities:
//
//	alloc        — the operation heap-allocates (composite literals
//	               that escape, make/new, interface boxing, closure
//	               captures, append without capacity evidence, map
//	               writes, string concatenation, defer in loops,
//	               fmt/reflection calls)
//	block        — the operation can block (lock acquisitions, channel
//	               operations, selects without default, known-blocking
//	               stdlib calls)
//	unknown-call — a call whose target cannot be proven clean (dynamic
//	               calls through func values, unannotated interface
//	               methods, stdlib outside the allowlist)
//
// The analysis is incremental: each package pass summarizes every
// function into a fact (ops surviving suppression + outgoing
// module-internal calls) and exports it; passes over dependent
// packages import the facts instead of re-scanning, exactly as
// analysis.Fact works upstream.
package hotpathcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/directive"
)

// Severity classifies one hot-path violation.
type Severity string

// The three severity classes (see package doc).
const (
	SevAlloc   Severity = "alloc"
	SevBlock   Severity = "block"
	SevUnknown Severity = "unknown-call"
)

// Op is one flagged operation inside a function body.
type Op struct {
	// Pos locates the offending expression or statement.
	Pos token.Pos
	// Sev is the violation class.
	Sev Severity
	// Msg names the offending expression and why it is flagged.
	Msg string
}

// Summary is the per-function fact: everything a traversal needs to
// know about a function without re-reading its body.
type Summary struct {
	// Ops are the flagged operations that survived `//lint:ignore`
	// suppression in the function's own package.
	Ops []Op
	// Calls are the resolved module-internal callees (generic origins).
	Calls []*types.Func
	// Cold marks an //insane:coldpath traversal barrier.
	Cold bool
	// Trusted marks an //insane:hotpath-annotated interface method:
	// calls through it are accepted without traversal.
	Trusted bool
}

// AFact marks Summary as an analysis fact.
func (*Summary) AFact() {}

// name is the rule name used in diagnostics and suppression lookups.
const name = "hotpathcheck"

// Analyzer is the hotpathcheck rule.
var Analyzer = &analysis.Analyzer{
	Name:      name,
	Doc:       "functions reachable from //insane:hotpath roots must not allocate, block or call unproven code",
	Run:       run,
	FactTypes: []analysis.Fact{(*Summary)(nil)},
}

// root is one //insane:hotpath entry point found in the package.
type root struct {
	fn         *types.Func
	allowBlock bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	idx := directive.NewIndex(pass.Fset, pass.Files)
	var roots []root

	// Phase 1a: interface methods carrying //insane:hotpath are
	// trusted boundaries (timebase.Clock.Now, fabric.Doorbell.Ring).
	// They are exported before any body is scanned, so a body in one
	// file can call a trusted method declared in another.
	for _, m := range directive.HotInterfaceMethods(pass.Files, pass.TypesInfo) {
		pass.ExportObjectFact(m, &Summary{Trusted: true})
	}

	// Phase 1b: summarize every function declaration and export the
	// facts; collect the roots declared in this package.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			d, probs := directive.ParseFuncDecl(fd.Doc)
			for _, p := range probs {
				pass.Reportf(p.Pos, "%s", p.Msg)
			}
			sum := &Summary{Cold: d.Cold}
			if !d.Cold && fd.Body != nil {
				sum.Ops, sum.Calls = scanBody(pass, idx, fd)
			}
			pass.ExportObjectFact(fn, sum)
			if d.Hot {
				roots = append(roots, root{fn: fn, allowBlock: d.AllowBlock})
			}
		}
	}

	// Phase 2: breadth-first traversal from each root over the fact
	// graph. Every op is reported at most once per pass (the first
	// root to reach it wins, with the shortest call chain).
	qual := types.RelativeTo(pass.Pkg)
	reported := make(map[token.Pos]bool)
	for _, r := range roots {
		search := callutil.NewSearch(r.fn)
		search.BFS(func(fn *types.Func) []*types.Func {
			var sum Summary
			if !pass.ImportObjectFact(fn, &sum) {
				return nil // classified at the call site during scanning
			}
			if sum.Cold || sum.Trusted {
				return nil
			}
			for _, op := range sum.Ops {
				if r.allowBlock && op.Sev == SevBlock {
					continue
				}
				if reported[op.Pos] {
					continue
				}
				reported[op.Pos] = true
				pass.Report(analysis.Diagnostic{
					Pos:     op.Pos,
					Message: fmt.Sprintf("%s [%s]%s", op.Msg, op.Sev, callutil.HotChainSuffix(search.Chain(fn), qual)),
				})
			}
			return sum.Calls
		})
	}
	return nil, nil
}
