// Package hotpathcheck proves, at compile time, that the INSANE hot
// path is cheap: every function reachable from an annotated hot-path
// root is free of heap allocation, blocking and calls into unproven
// code, and does bounded work, so per-packet cost is a compile-time
// constant that adversarial traffic cannot stretch.
//
// The runtime's zero-alloc contract (DESIGN.md §7) was previously
// enforced only by sampled runtime gates (TestSteadyStateZeroAlloc),
// which cover one warm path and are skipped under -race. This analyzer
// turns the contract into a whole-program property.
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
// Findings carry one of four severities:
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
//	unbounded    — a loop that cannot be proven bounded, or a call
//	               cycle: recursion no constant can bound
//
// A loop is provably bounded when the analyzer can see a constant cap:
//
//   - a range over a fixed-size array (or pointer to one), or over a
//     constant integer
//   - a counter loop `for i := C0; i < C1; i++` whose start, bound and
//     step are all provable constants — folding includes `len` of an
//     array, named constants, and calls to module functions that return
//     a single constant (proven via the exported Summary fact of the
//     callee's package, so a bound can live in a dependency)
//   - a counter loop or slice range whose bound was fence-clamped
//     against a constant earlier in the function: `if n > C { n = C }`
//     or `if len(s) > C { s = s[:C] }`
//
// Everything else — `for {}`, data-dependent slice/map/string/channel
// ranges, bounds that flow from packet contents — is unproven. An
// unproven loop that a real invariant bounds is waived, with the
// invariant spelled out, by annotating the loop line (or the line
// above):
//
//	//insane:bounded by=<reason>
//
// The annotation is verified: one that is malformed, attached to no
// loop, or attached to a loop the analyzer can prove anyway is
// reported, so the waiver set cannot rot. Loops inside function
// literals are out of scope: the literal's body belongs to a different
// function, and calls through func values are already unknown-calls.
//
// The analysis is incremental: each package pass summarizes every
// function into a fact (ops surviving suppression, outgoing
// module-internal calls, constant-return value) and exports it; passes
// over dependent packages import the facts instead of re-scanning,
// exactly as analysis.Fact works upstream.
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

// The four severity classes (see package doc).
const (
	SevAlloc     Severity = "alloc"
	SevBlock     Severity = "block"
	SevUnknown   Severity = "unknown-call"
	SevUnbounded Severity = "unbounded"
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

// Call is one resolved module-internal call edge.
type Call struct {
	// Fn is the callee (generic origin).
	Fn *types.Func
	// Pos locates the first call site, where recursion is reported.
	Pos token.Pos
}

// Summary is the per-function fact: everything a traversal needs to
// know about a function without re-reading its body.
type Summary struct {
	// Ops are the flagged operations, unproven loops included, that
	// survived `//lint:ignore` suppression and //insane:bounded waivers
	// in the function's own package.
	Ops []Op
	// Calls are the module-internal callees, in order of first call.
	Calls []Call
	// Cold marks an //insane:coldpath traversal barrier.
	Cold bool
	// Trusted marks an //insane:hotpath-annotated interface method:
	// calls through it are accepted without traversal.
	Trusted bool
	// ConstBound marks a function whose body is a single `return C`
	// with C a constant integer: calls to it fold to BoundVal when
	// proving loop bounds in dependent packages.
	ConstBound bool
	BoundVal   int64
}

// AFact marks Summary as an analysis fact.
func (*Summary) AFact() {}

// name is the rule name used in diagnostics and suppression lookups.
const name = "hotpathcheck"

// Analyzer is the hotpathcheck rule.
var Analyzer = &analysis.Analyzer{
	Name:      name,
	Doc:       "functions reachable from //insane:hotpath roots must not allocate, block, call unproven code or run unbounded loops",
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
	bidx := directive.Scan(pass.Fset, pass.Files, directive.ParseBounded)

	// Phase 1a: interface methods carrying //insane:hotpath are
	// trusted boundaries (timebase.Clock.Now, fabric.Doorbell.Ring).
	// They are exported before any body is scanned, so a body in one
	// file can call a trusted method declared in another.
	for _, m := range directive.HotInterfaceMethods(pass.Files, pass.TypesInfo) {
		pass.ExportObjectFact(m, &Summary{Trusted: true})
	}

	// Phase 1b: collect declarations and pre-compute constant returns,
	// so a loop in one function can fold a bound through a call to a
	// function declared later in the same package.
	type decl struct {
		fd *ast.FuncDecl
		fn *types.Func
	}
	var decls []decl
	constRet := make(map[*types.Func]int64)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, decl{fd, fn})
			if v, ok := constReturn(pass, fd); ok {
				constRet[fn] = v
			}
		}
	}

	// Phase 1c: summarize every function and export the facts; collect
	// the roots declared in this package.
	var roots []root
	for _, d := range decls {
		dirs, probs := directive.ParseFuncDecl(d.fd.Doc)
		for _, p := range probs {
			pass.Reportf(p.Pos, "%s", p.Msg)
		}
		sum := &Summary{Cold: dirs.Cold}
		if v, ok := constRet[d.fn]; ok {
			sum.ConstBound, sum.BoundVal = true, v
		}
		if !dirs.Cold && d.fd.Body != nil {
			scanBody(pass, idx, bidx, constRet, d.fd, sum)
		}
		pass.ExportObjectFact(d.fn, sum)
		if dirs.Hot {
			roots = append(roots, root{fn: d.fn, allowBlock: dirs.AllowBlock})
		}
	}

	// Phase 2: breadth-first traversal from each root over the fact
	// graph, so every finding carries a shortest call chain, then a
	// depth-first cycle check over what the root reaches: a call edge
	// back into the DFS stack is recursion no constant can bound. Each
	// finding is reported at most once per pass (the first root to
	// reach it wins).
	qual := types.RelativeTo(pass.Pkg)
	reported := make(map[Op]bool)
	for _, r := range roots {
		search := callutil.NewSearch(r.fn)
		report := func(fn *types.Func, op Op) {
			if reported[op] || r.allowBlock && op.Sev == SevBlock {
				return
			}
			reported[op] = true
			pass.Report(analysis.Diagnostic{
				Pos:     op.Pos,
				Message: fmt.Sprintf("%s [%s]%s", op.Msg, op.Sev, chainSuffix(search.Chain(fn), qual)),
			})
		}
		// sums holds the reached functions whose bodies count: those
		// with a fact (the rest was classified at the call site during
		// scanning) that is neither a barrier nor a trusted boundary.
		sums := make(map[*types.Func]*Summary)
		search.BFS(func(fn *types.Func) []*types.Func {
			sum := new(Summary)
			if !pass.ImportObjectFact(fn, sum) || sum.Cold || sum.Trusted {
				return nil
			}
			sums[fn] = sum
			for _, op := range sum.Ops {
				report(fn, op)
			}
			callees := make([]*types.Func, len(sum.Calls))
			for i, c := range sum.Calls {
				callees[i] = c.Fn
			}
			return callees
		})
		onStack := make(map[*types.Func]bool)
		var dfs func(fn *types.Func)
		dfs = func(fn *types.Func) {
			onStack[fn] = true
			for _, c := range sums[fn].Calls {
				if on, visited := onStack[c.Fn]; on {
					report(fn, Op{Pos: c.Pos, Sev: SevUnbounded, Msg: "recursive call to " + callutil.FuncName(c.Fn, qual) + " makes per-packet work unprovable"})
				} else if !visited && sums[c.Fn] != nil {
					dfs(c.Fn)
				}
			}
			onStack[fn] = false
		}
		if sums[r.fn] != nil {
			dfs(r.fn)
		}
	}

	// Phase 3: annotations no loop claimed vouch for nothing.
	for _, b := range bidx.Unclaimed() {
		if b.Malformed != "" {
			pass.Reportf(b.Pos, "malformed //insane:bounded annotation: %s", b.Malformed)
		} else {
			pass.Reportf(b.Pos, "//insane:bounded annotation is not attached to a for or range statement")
		}
	}
	return nil, nil
}

// constReturn recognizes a function whose body is exactly `return C`
// for a constant integer C.
func constReturn(pass *analysis.Pass, fd *ast.FuncDecl) (int64, bool) {
	if fd.Body == nil || len(fd.Body.List) != 1 {
		return 0, false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return 0, false
	}
	return intConst(pass.TypesInfo, ret.Results[0])
}

// chainSuffix is the tail of a finding: which root reaches the function
// holding it, and how. chain runs from the root.
func chainSuffix(chain []*types.Func, qual types.Qualifier) string {
	root := callutil.FuncName(chain[0], qual)
	if len(chain) == 1 {
		return " in hot-path root " + root
	}
	return " reachable from hot-path root " + root + ": " + callutil.ChainText(chain, qual)
}
