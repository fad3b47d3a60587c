// Package paircheck implements the insanevet rule proving the ownership
// contract of every named resource — a tenant TX token, a mempool slot,
// a tenant budget unit (DESIGN.md §13): every acquisition is matched by
// a release or a transfer to another owner on every control-flow path
// out of the function, including error returns, panics and defers; and
// once a pointer went to a releasing or transferring call, nothing
// touches it again — the polling threads recycle the slot it wraps with
// no after-write protection (§5.1).
//
// Functions declare their effect in the doc comment:
//
//	//insane:acquire resource=<name> [on=true|on=nilerr]
//	//insane:release resource=<name>
//	//insane:transfer resource=<name> [on=true|on=nilerr]
//	//insane:unbalanced resource=<name> by=<reason>
//
// The declarations travel the whole-program dependency closure as
// facts, so a call into another package resolves its effect exactly
// like a local one. Within each body the analyzer runs one
// path-sensitive walk on the shared flow engine (internal/lint/flow).
// Its tokens, one per tracked unit, meet in a token merge: conditional
// acquires (TryCharge returning false, GetBuffer returning an error)
// stay pending until a branch on the gating variable resolves them, a
// conditional transfer (a failed lane push) reverts ownership to the
// caller on the failure side, short-circuit conjuncts attach nil-check
// guards, and defers apply at every subsequent exit. Its kill set holds
// the holders ("b", "m.d") whose unit a release or transfer callee took;
// a kill inside a branch stays there, reassignment revives a holder, and
// a conditional transfer's kill waits on the same gate as its token — so
// where Emit failed with ErrBackpressure the caller still owns the
// buffer, with no exception of its own. The diagnostics cover seven
// classes: a leak on a return path, a release on a path whose
// conditional acquire failed, a double release, a use after release, an
// acquire returned from an undeclared function, a stale or malformed
// annotation, and a stale waiver.
//
// Trust boundaries keep the balance proof compositional: a function
// declared //insane:release or //insane:transfer for a resource is the
// trusted boundary for the caller-owned unit it consumes, so its body is
// not re-verified for that resource; a declared acquirer whose body
// calls no annotated function for the resource is its trusted primitive
// (the atomics inside chargeTX). Everything else is proven.
package paircheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/directive"
)

// Analyzer is the paircheck rule. Its fact type makes it
// whole-program: the driver runs it over the full in-module dependency
// closure, dependencies first.
var Analyzer = &analysis.Analyzer{
	Name:      "paircheck",
	Doc:       "prove every declared resource acquisition is balanced by a release or transfer on every control-flow path, and no holder is used after the unit moved",
	Run:       run,
	FactTypes: []analysis.Fact{(*effects)(nil)},
}

// effects is the fact attached to every function with at least one
// pair annotation: its declared resource effects, in source order.
type effects struct {
	List []directive.PairEffect
}

// AFact marks effects as an analysis fact.
func (*effects) AFact() {}

// export parses the pair annotations of every function declared in the
// pass's package, exports an effects fact for each annotated function,
// and returns the parsed annotations by declaration plus any malformed
// ones. It runs before any body is walked, so same-package calls
// resolve their effects exactly like cross-package ones.
func export(pass *analysis.Pass) (map[*ast.FuncDecl]directive.PairDirectives, []directive.Problem) {
	decls := make(map[*ast.FuncDecl]directive.PairDirectives)
	var probs []directive.Problem
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			dirs, ps := directive.ParsePairDecl(fd.Doc)
			probs = append(probs, ps...)
			if len(dirs.Effects) == 0 && len(dirs.Waivers) == 0 {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fd] = dirs
			if len(dirs.Effects) > 0 {
				pass.ExportObjectFact(obj, &effects{List: dirs.Effects})
			}
		}
	}
	return decls, probs
}

// lookup returns the declared effects of a function, resolving generic
// instantiations back to their origin declaration (facts are exported
// on the generic method, calls resolve to the instantiated one).
func lookup(pass *analysis.Pass, fn *types.Func) []directive.PairEffect {
	if fn == nil {
		return nil
	}
	var f effects
	if pass.ImportObjectFact(fn.Origin(), &f) {
		return f.List
	}
	return nil
}

func run(pass *analysis.Pass) (interface{}, error) {
	byFn, probs := export(pass)
	for _, p := range probs {
		pass.Reportf(p.Pos, "%s", p.Msg)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					verifyFunc(pass, n, byFn[n])
				}
			case *ast.FuncLit:
				verifyLit(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// verifyFunc walks one declared function body.
func verifyFunc(pass *analysis.Pass, fd *ast.FuncDecl, dirs directive.PairDirectives) {
	w := newWalker(pass, fd.Body)
	if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		w.sig, _ = obj.Type().(*types.Signature)
	}
	if w.sig != nil {
		if r := w.sig.Recv(); r != nil {
			w.nonLocal[r] = true
		}
		for i := 0; i < w.sig.Params().Len(); i++ {
			w.nonLocal[w.sig.Params().At(i)] = true
		}
	}
	for _, e := range dirs.Effects {
		if e.Kind == directive.PairAcquire {
			w.declared[e.Resource] = e.Cond
		} else {
			w.skip[e.Resource] = true
		}
	}
	for _, wv := range dirs.Waivers {
		w.waived[wv.Resource] = true
	}
	w.verify(fd.Body)
	for _, wv := range dirs.Waivers {
		if !w.waiverHit[wv.Resource] {
			pass.Reportf(fd.Name.Pos(), "//insane:unbalanced resource=%s: every path of %s is balanced; remove the stale waiver", wv.Resource, fd.Name.Name)
		}
	}
}

// verifyLit walks a function literal with lenient closure semantics:
// no declarations apply, and an acquire in return position forwards
// the unit to whoever calls the closure.
func verifyLit(pass *analysis.Pass, lit *ast.FuncLit) {
	w := newWalker(pass, lit.Body)
	w.isLit = true
	if tv, ok := pass.TypesInfo.Types[lit]; ok {
		w.sig, _ = tv.Type.(*types.Signature)
	}
	w.verify(lit.Body)
}

// effectCallsIn records which resources the body touches through
// annotated calls; a declared acquirer with no such call for its
// resource is that resource's trusted primitive.
func effectCallsIn(pass *analysis.Pass, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := callutil.StaticCallee(pass.TypesInfo, call); fn != nil {
			for _, e := range lookup(pass, fn) {
				out[e.Resource] = true
			}
		}
		return true
	})
	return out
}

// exitClass is what a return statement tells us about a conditional
// acquirer's result.
type exitClass int

const (
	exitUnknown exitClass = iota
	exitSuccess
	exitFailure
)

// doExit processes one path leaving the function: apply nested result
// effects and the registered defers, honor acquire-forwarding in
// return position, then check every resource's balance.
func (w *walker) doExit(st *state, ret *ast.ReturnStmt) {
	forwarded := make(map[string]bool)
	if ret != nil {
		for _, r := range ret.Results {
			w.applyNested(st, r, nil)
		}
		w.scanReturnAcquires(st, ret.Results, forwarded)
	}
	ex := st.Clone()
	for i := len(ex.defers) - 1; i >= 0; i-- {
		w.applyDefer(ex, ex.defers[i])
	}
	w.checkExit(ex, ret, forwarded)
}

// scanReturnAcquires handles effect calls in return position: a
// declared acquirer (or a closure) may forward a fresh unit straight
// to its caller; anything else acquires a resource its caller cannot
// see.
func (w *walker) scanReturnAcquires(st *state, results []ast.Expr, forwarded map[string]bool) {
	for _, r := range results {
		ast.Inspect(r, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, effs := w.effects(call)
			for _, e := range effs {
				if e.Kind != directive.PairAcquire {
					continue
				}
				if _, ok := w.declared[e.Resource]; ok || w.isLit {
					forwarded[e.Resource] = true
					continue
				}
				w.flag(e.Resource, call.Pos(), "resource %s acquired via %s in return position of a function not declared //insane:acquire resource=%s; the caller cannot see the obligation",
					e.Resource, w.funcName(fn), e.Resource)
			}
			return true
		})
	}
}

// applyDefer applies the release effects of one deferred call to the
// exit state.
func (w *walker) applyDefer(ex *state, d deferEntry) {
	call := d.call
	if lit, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); isLit {
		// A deferred closure: trust it with every token it captures.
		w.dischargeMentioned(ex, lit.Body, d.pos)
		return
	}
	w.consume(ex, call)
}

// checkExit verifies the balance of every resource at one exit.
func (w *walker) checkExit(ex *state, ret *ast.ReturnStmt, forwarded map[string]bool) {
	resources := make(map[string]bool)
	for _, t := range ex.toks {
		resources[t.resource] = true
	}
	for r := range w.declared {
		resources[r] = true
	}
	for resource := range resources {
		if w.skip[resource] || forwarded[resource] {
			continue
		}
		live := ex.liveOf(resource)
		var firm []*tok
		for _, t := range live {
			if t.firm() && t.guard == nil {
				firm = append(firm, t)
			}
		}
		cond, isDeclared := w.declared[resource]
		if isDeclared {
			if !w.hasEffect[resource] {
				continue // trusted primitive for this resource
			}
			switch w.classifyExit(ret, cond) {
			case exitSuccess:
				if len(live) == 0 && !ex.storedOut(resource) {
					w.flag(resource, exitPos(ret, w), "declared //insane:acquire resource=%s, but no unit is held at this success return%s; the annotation is stale or an acquire is missing",
						resource, ex.path())
				} else if len(firm) > 1 {
					w.flag(resource, exitPos(ret, w), "holds %d units of resource %s at a success return%s; //insane:acquire hands exactly one to the caller",
						len(firm), resource, ex.path())
				}
			case exitFailure:
				for _, t := range firm {
					w.flag(resource, exitPos(ret, w), "resource %s acquired via %s at line %d leaks on this failure return%s",
						resource, t.via, w.line(t.pos), ex.path())
				}
			default:
				if len(firm) > 1 {
					w.flag(resource, exitPos(ret, w), "holds %d units of resource %s at this return%s; //insane:acquire hands exactly one to the caller",
						len(firm), resource, ex.path())
				}
			}
			continue
		}
		for _, t := range live {
			if t.maybe || t.guard != nil {
				continue // merged across branches: give the benefit of the doubt
			}
			if t.pendXfer != nil {
				w.flag(resource, exitPos(ret, w), "resource %s handed to conditional transfer %s at line %d may not have moved: resolve the gate (release on failure) before this return, or declare this function //insane:transfer%s",
					resource, t.pendXfer.via, w.line(t.pendXfer.pos), ex.path())
				continue
			}
			if t.pendAcq != nil {
				w.flag(resource, exitPos(ret, w), "resource %s conditionally acquired via %s at line %d may leak: its gate is never checked before this return%s",
					resource, t.via, w.line(t.pos), ex.path())
				continue
			}
			w.flag(resource, exitPos(ret, w), "resource %s acquired via %s at line %d is not released on this return path%s; release it, hand it to a //insane:transfer callee, or declare/waive the imbalance",
				resource, t.via, w.line(t.pos), ex.path())
		}
	}
}

// exitPos anchors an exit diagnostic: the return statement, or the
// closing brace for an implicit fall-off-the-end exit.
func exitPos(ret *ast.ReturnStmt, w *walker) token.Pos {
	if ret != nil {
		return ret.Pos()
	}
	return w.bodyEnd
}

// classifyExit inspects the returned gate value of a conditional
// acquirer: `return b, nil` is a success, `return nil, ErrCanceled` (a
// package sentinel) or a fresh fmt.Errorf a failure, a plain variable
// unknown.
func (w *walker) classifyExit(ret *ast.ReturnStmt, cond directive.PairCond) exitClass {
	if cond == directive.CondAlways {
		return exitSuccess
	}
	if ret == nil || len(ret.Results) == 0 || w.sig == nil {
		return exitUnknown
	}
	if len(ret.Results) != w.sig.Results().Len() {
		return exitUnknown // return f() forwarding or mismatch
	}
	switch cond {
	case directive.CondNilErr:
		idx := -1
		for i := w.sig.Results().Len() - 1; i >= 0; i-- {
			if callutil.IsError(w.sig.Results().At(i).Type()) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return exitUnknown
		}
		return w.classifyErrExpr(ret.Results[idx])
	case directive.CondTrue:
		if id, ok := ast.Unparen(ret.Results[0]).(*ast.Ident); ok {
			switch id.Name {
			case "true":
				return exitSuccess
			case "false":
				return exitFailure
			}
		}
	}
	return exitUnknown
}

func (w *walker) classifyErrExpr(e ast.Expr) exitClass {
	e = ast.Unparen(e)
	if isNilIdent(w.pass.TypesInfo, e) {
		return exitSuccess
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		if fn := callutil.StaticCallee(w.pass.TypesInfo, e); fn != nil && fn.Pkg() != nil {
			switch fn.Pkg().Path() + "." + fn.Name() {
			case "fmt.Errorf", "errors.New":
				return exitFailure // these never return nil
			}
		}
	case *ast.Ident, *ast.SelectorExpr:
		var obj types.Object
		switch e := e.(type) {
		case *ast.Ident:
			obj = w.pass.TypesInfo.Uses[e]
		case *ast.SelectorExpr:
			obj = w.pass.TypesInfo.Uses[e.Sel]
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() && callutil.IsError(v.Type()) {
			return exitFailure // package-level error sentinels are non-nil
		}
	}
	return exitUnknown
}
