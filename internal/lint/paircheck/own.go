package paircheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/directive"
)

// kill records the call that took a holder's unit.
type kill struct {
	verb string    // the consuming callee: "Emit", "Release", "Put"
	pos  token.Pos // the consuming call
	// gate is set when the kill depends on the call's result (a
	// conditional transfer whose error or bool was bound): the side of a
	// branch where the transfer failed revives the holder.
	gate *pending
}

// own applies one simple statement to the kill set: uses of dead holders
// are reported, consuming calls kill their holder arguments, and
// reassignment revives a holder. It runs after the statement's balance
// effects, so a double release the token proof reported at a call is not
// reported again as a use.
func (w *walker) own(s ast.Stmt, st *state) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.kill(st, s.Rhs, s.Lhs)
		for _, lhs := range s.Lhs {
			if key := trackKey(lhs); key != "" {
				if _, dead := st.killed[key]; dead {
					delete(st.killed, key)
					continue
				}
			}
			w.checkUses(st, lhs) // b.Payload[0] = 1 after Emit
		}
	case *ast.ExprStmt:
		w.kill(st, []ast.Expr{s.X}, nil)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			w.kill(st, vs.Values, specLHS(vs))
			for _, n := range vs.Names {
				delete(st.killed, n.Name)
			}
		}
	case *ast.DeferStmt:
		w.checkUses(st, s.Call)
	case *ast.GoStmt:
		w.checkUses(st, s.Call)
	case *ast.SendStmt:
		w.checkUses(st, s.Chan, s.Value)
	case *ast.IncDecStmt:
		w.checkUses(st, s.X)
	}
}

// specLHS is the left-hand side a var declaration assigns.
func specLHS(vs *ast.ValueSpec) []ast.Expr {
	lhs := make([]ast.Expr, len(vs.Names))
	for i, n := range vs.Names {
		lhs[i] = n
	}
	return lhs
}

// consumer reports whether the call's callee releases or transfers a
// resource, in the registry and regardless of what this function is
// answerable for, and on what the kill of its arguments depends: a
// release is unconditional, a transfer as conditional as declared.
func (w *walker) consumer(call *ast.CallExpr) (*types.Func, directive.PairCond, bool) {
	fn := callutil.StaticCallee(w.pass.TypesInfo, call)
	consuming, cond := false, directive.CondAlways
	for _, e := range lookup(w.pass, fn) {
		switch e.Kind {
		case directive.PairRelease:
			return fn, directive.CondAlways, true
		case directive.PairTransfer:
			consuming, cond = true, e.Cond
		}
	}
	return fn, cond, consuming
}

// kill checks the uses within exprs and applies the consuming calls
// among them. A holder argument that is already dead is a use after
// release, reported unless the balance proof already reported the call
// as a double release; then every holder argument dies. The kill of the
// statement's top call is gated on its result when lhs binds it.
func (w *walker) kill(st *state, exprs, lhs []ast.Expr) {
	w.uses(st, true, exprs)
	var top *ast.CallExpr
	if len(exprs) == 1 {
		top, _ = ast.Unparen(exprs[0]).(*ast.CallExpr)
	}
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // closures run later; analyzed separately
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, cond, ok := w.consumer(call)
			if !ok {
				return true
			}
			var gate *pending
			if call == top {
				gate = w.pendingOn(cond, lhs, call.Pos(), w.funcName(fn))
			}
			for _, a := range call.Args {
				key := w.killKey(a)
				if key == "" {
					continue
				}
				if k, dead := st.killed[key]; dead && !w.doubled[call.Pos()] {
					w.useAfter(a.Pos(), key, k)
				}
				st.killed[key] = kill{verb: fn.Name(), pos: call.Pos(), gate: gate}
			}
			return true
		})
	}
}

// checkUses reports every appearance of a dead holder within the
// expressions, skipping the interiors of closures.
func (w *walker) checkUses(st *state, exprs ...ast.Expr) { w.uses(st, false, exprs) }

// uses is checkUses, except that with byKill the dead holder arguments
// of a consuming call are left to kill, which settles them with the
// call.
func (w *walker) uses(st *state, byKill bool, exprs []ast.Expr) {
	if len(st.killed) == 0 {
		return
	}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if _, _, ok := w.consumer(n); ok && byKill {
					w.uses(st, true, []ast.Expr{n.Fun})
					for _, a := range n.Args {
						if _, dead := st.killed[w.killKey(a)]; !dead {
							w.uses(st, true, []ast.Expr{a})
						}
					}
					return false
				}
			case *ast.Ident, *ast.SelectorExpr:
				key := callutil.Canon(n.(ast.Expr))
				if k, dead := st.killed[key]; dead {
					w.useAfter(n.Pos(), key, k)
					delete(st.killed, key) // one report per kill is enough
				}
				if sel, ok := n.(*ast.SelectorExpr); ok {
					// Sel names a field or a method, not a holder.
					w.uses(st, byKill, []ast.Expr{sel.X})
					return false
				}
			}
			return true
		})
	}
}

// useAfter reports one use of a dead holder.
func (w *walker) useAfter(pos token.Pos, key string, k kill) {
	w.report(pos, "%s used after %s (ownership passed to the runtime at line %d)", key, k.verb, w.line(k.pos))
}

// killKey is the holder a consuming call's argument hands over: only a
// pointer to a named type carries an aliasable reference (a txToken or a
// SlotID passed by value does not), and only a trackable expression has
// a key.
func (w *walker) killKey(arg ast.Expr) string {
	if t := w.pass.TypesInfo.TypeOf(arg); t != nil {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			if _, named := ptr.Elem().(*types.Named); named {
				return trackKey(arg)
			}
		}
	}
	return ""
}

// trackKey is the tracking key of an argument or assignment target:
// callutil.Canon, narrowed to refuse &x and *p — the object those name
// is not the variable whose ownership moved. The address of a field is
// the exception: `h.Release(&m.d)` hands over the struct a wrapper holds
// by value, so m.d is dead afterwards exactly as a pointer field passed
// as `h.Release(m.d)` would be.
func trackKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if _, field := ast.Unparen(e.X).(*ast.SelectorExpr); field && e.Op == token.AND {
			return callutil.Canon(e.X)
		}
		return ""
	case *ast.StarExpr:
		return ""
	}
	return callutil.Canon(e)
}
