// Package boundedcheck extends the hot-path proof from "no alloc, no
// block" (hotpathcheck) to "bounded work": every loop reachable from an
// //insane:hotpath root must be provably bounded, so per-packet
// processing cost is a compile-time constant and adversarial traffic
// cannot stretch it.
//
// A loop is provably bounded when the analyzer can see a constant cap:
//
//   - a range over a fixed-size array (or pointer to one), or over a
//     constant integer
//   - a counter loop `for i := C0; i < C1; i++` whose start, bound and
//     step are all provable constants — folding includes `len` of an
//     array, named constants, and calls to module functions that return
//     a single constant (proven via the exported WorkSummary fact of
//     the callee's package, so a bound can live in a dependency)
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
// reported, so the waiver set cannot rot. Data-dependent recursion is
// reported too: any call cycle reachable from a root makes per-packet
// work unprovable. Individual findings are waived line by line with
// `//lint:ignore insanevet/boundedcheck <reason>`.
//
// Like hotpathcheck, the analysis is whole-program and bottom-up: each
// package pass summarizes every function (unproven loops, outgoing
// module-internal call edges, constant-return value) into a WorkSummary
// fact; traversal from the roots then walks the fact graph and reports
// each finding with its full call chain. Function literals are out of
// scope here — calls through func values are dynamic and hotpathcheck
// already flags them on hot paths. Malformed //insane:hotpath and
// //insane:coldpath directives are hotpathcheck's to report; this
// analyzer only consumes them.
package boundedcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/directive"
)

// Loop is one unproven, unwaived loop of a function.
type Loop struct {
	// Pos locates the for or range statement.
	Pos token.Pos
	// Msg states why the loop could not be proven bounded.
	Msg string
}

// CallEdge is one resolved module-internal call.
type CallEdge struct {
	// Fn is the callee (generic origin).
	Fn *types.Func
	// Pos locates the first call site, where recursion is reported.
	Pos token.Pos
}

// WorkSummary is the per-function fact of the boundedcheck rule.
type WorkSummary struct {
	// Loops are the unproven loops that survived annotation waivers and
	// `//lint:ignore` suppression in the function's own package.
	Loops []Loop
	// Calls are the resolved module-internal callees.
	Calls []CallEdge
	// Cold marks an //insane:coldpath traversal barrier.
	Cold bool
	// Trusted marks an //insane:hotpath-annotated interface method.
	Trusted bool
	// ConstBound marks a function whose body is a single `return C`
	// with C a constant integer: calls to it fold to BoundVal when
	// proving loop bounds in dependent packages.
	ConstBound bool
	BoundVal   int64
}

// AFact marks WorkSummary as an analysis fact.
func (*WorkSummary) AFact() {}

// name is the rule name used in diagnostics and suppression lookups.
const name = "boundedcheck"

// Analyzer is the boundedcheck rule.
var Analyzer = &analysis.Analyzer{
	Name:      name,
	Doc:       "loops reachable from //insane:hotpath roots must be provably bounded or carry a verified //insane:bounded annotation",
	Run:       run,
	FactTypes: []analysis.Fact{(*WorkSummary)(nil)},
}

func run(pass *analysis.Pass) (interface{}, error) {
	idx := directive.NewIndex(pass.Fset, pass.Files)
	bidx := directive.Scan(pass.Fset, pass.Files, directive.ParseBounded)

	// Phase 1a: interface methods carrying //insane:hotpath are trusted
	// boundaries, exactly as in hotpathcheck: implementations are
	// vetted where they are defined.
	for _, m := range directive.HotInterfaceMethods(pass.Files, pass.TypesInfo) {
		pass.ExportObjectFact(m, &WorkSummary{Trusted: true})
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

	// Phase 1c: summarize every function, export the facts, collect
	// the hot-path roots declared in this package.
	var roots []*types.Func
	for _, d := range decls {
		dirs, _ := directive.ParseFuncDecl(d.fd.Doc) // problems are hotpathcheck's to report
		sum := &WorkSummary{Cold: dirs.Cold}
		if v, ok := constRet[d.fn]; ok {
			sum.ConstBound, sum.BoundVal = true, v
		}
		if !dirs.Cold && d.fd.Body != nil {
			scanBody(pass, idx, bidx, constRet, d.fd, sum)
		}
		pass.ExportObjectFact(d.fn, sum)
		if dirs.Hot {
			roots = append(roots, d.fn)
		}
	}

	// Phase 2: depth-first traversal from each root over the fact
	// graph. The DFS stack doubles as the recursion detector: a call
	// edge back into the stack is a cycle no constant can bound. Each
	// finding is reported once, with the chain of the first root that
	// reached it.
	qual := types.RelativeTo(pass.Pkg)
	reported := make(map[token.Pos]bool)
	for _, r := range roots {
		search := callutil.NewSearch(r)
		onstack := make(map[*types.Func]bool)
		var dfs func(fn *types.Func)
		dfs = func(fn *types.Func) {
			onstack[fn] = true
			defer func() { onstack[fn] = false }()
			var sum WorkSummary
			if !pass.ImportObjectFact(fn, &sum) {
				return // not module code; hotpathcheck governs the boundary
			}
			if sum.Cold || sum.Trusted {
				return
			}
			suffix := func() string { return callutil.HotChainSuffix(search.Chain(fn), qual) }
			for _, lp := range sum.Loops {
				if reported[lp.Pos] {
					continue
				}
				reported[lp.Pos] = true
				pass.Report(analysis.Diagnostic{Pos: lp.Pos, Message: lp.Msg + " [unbounded]" + suffix()})
			}
			for _, e := range sum.Calls {
				if onstack[e.Fn] {
					if !reported[e.Pos] {
						reported[e.Pos] = true
						pass.Report(analysis.Diagnostic{
							Pos:     e.Pos,
							Message: "recursive call to " + callutil.FuncName(e.Fn, qual) + " makes per-packet work unprovable [unbounded]" + suffix(),
						})
					}
					continue
				}
				if search.Reach(fn, e.Fn) {
					dfs(e.Fn)
				}
			}
		}
		dfs(r)
	}

	// Phase 3: annotations no loop claimed vouch for nothing.
	for _, b := range bidx.Unclaimed() {
		if idx.Suppresses(pass.Fset.Position(b.Pos), name) {
			continue
		}
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
