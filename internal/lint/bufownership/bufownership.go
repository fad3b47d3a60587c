// Package bufownership implements the insanevet rule enforcing the
// zero-copy buffer ownership protocol of the INSANE client API (§5.1).
//
// A *Buffer handed to Emit (or Abort) belongs to the runtime: the slot
// it wraps is recycled concurrently by the polling threads, so any
// later read or write through the same variable is a data race on
// shared memory that no test reliably catches. The same applies to a
// *Message/*Delivery after Release. This analyzer flags, within one
// function body:
//
//   - any use of a buffer variable after it was passed to Emit/Abort;
//   - any use of a message variable after it was passed to Release,
//     including a second Release (double release corrupts the slot
//     reference counts);
//   - any use of a pooled object after it was returned to a free list —
//     the free lists recycle objects concurrently, so a stale reference
//     races with the object's next owner exactly like a released slot.
//
// The set of consuming calls is not a hardcoded name list: it is the
// //insane:release and //insane:transfer resource registry (the same
// pairfacts facts paircheck proves balance over, DESIGN.md §13). Any
// function annotated as releasing or transferring a resource kills its
// pointer-to-named-type arguments; unannotated functions — even ones
// named Put or Release — kill nothing.
//
// The one sanctioned exception is the backpressure protocol: Emit
// returns ErrBackpressure *without* taking ownership, so uses guarded
// by a condition on the error returned by the killing call (for
// example `if errors.Is(err, insane.ErrBackpressure)`) are not flagged,
// and re-emitting the same buffer inside a retry loop is fine because
// the analysis is forward-only within each loop iteration. The walk is
// the shared flow engine's (internal/lint/flow); this rule's join
// discards what happened inside a branch.
//
// Reassigning the variable (`b, err = src.GetBuffer(n)` or
// `b.inner = core.Buffer{}`) re-establishes ownership and stops the
// tracking.
package bufownership

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/directive"
	"github.com/insane-mw/insane/internal/lint/flow"
	"github.com/insane-mw/insane/internal/lint/pairfacts"
)

// Analyzer is the bufownership rule. It declares the pairfacts Effects
// fact so the driver runs it whole-program: a consuming call is
// recognized across package boundaries wherever the callee carries an
// //insane:release or //insane:transfer annotation.
var Analyzer = &analysis.Analyzer{
	Name:      "bufownership",
	Doc:       "flag uses of zero-copy buffers after ownership passed to the runtime (any //insane:release or //insane:transfer callee)",
	Run:       run,
	FactTypes: []analysis.Fact{(*pairfacts.Effects)(nil)},
}

// kill records the statement that transferred ownership of a value.
type kill struct {
	verb   string       // "Emit", "Abort" or "Release"
	pos    token.Pos    // position of the killing call
	errVar types.Object // error assigned from the killing call, if any
}

// state maps canonical expressions ("b", "b.inner") to their kill.
type state map[string]kill

func (s state) Clone() state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Join discards the arms: a kill inside a branch does not escape it
// (conservative: no false positives after
// `if cond { Emit(b) } else { Abort(b) }`), while kills in straight-line
// code reach every following statement.
func (s state) Join([]state) state { return s }

func run(pass *analysis.Pass) (interface{}, error) {
	// Export this package's pair annotations as facts so downstream
	// packages see its consuming functions. Malformed directives are
	// dropped silently here — paircheck already diagnoses them, and a
	// second copy of each problem would be noise.
	pairfacts.Export(pass)
	w := flow.New(flow.Hooks[state]{
		NoReturn: func(call *ast.CallExpr) bool { return callutil.NoReturn(pass.TypesInfo, call) },
		Stmt:     func(s ast.Stmt, st state) { scanStmt(pass, s, st) },
		Eval:     func(_ ast.Node, e ast.Expr, st state) { checkUses(pass, e, st) },
		Exit: func(ret *ast.ReturnStmt, st state) {
			for _, r := range ret.Results {
				checkUses(pass, r, st)
			}
		},
		// The error-guard exception: inside a branch (or loop body)
		// conditioned on the killing call's error, the caller still
		// owns the buffer (ErrBackpressure keeps ownership with the
		// caller).
		Branch: func(_ ast.Node, cond ast.Expr, st state) (then, els state) {
			checkUses(pass, cond, st)
			then = st.Clone()
			for key, k := range st {
				if k.errVar != nil && mentions(pass, cond, k.errVar) {
					delete(then, key)
				}
			}
			return then, st.Clone()
		},
	})
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w.Walk(fn.Body.List, make(state))
				}
			case *ast.FuncLit:
				w.Walk(fn.Body.List, make(state))
			}
			return true
		})
	}
	return nil, nil
}

// scanStmt applies one simple statement: uses of dead values are
// reported, consuming calls kill their arguments, and reassignment
// re-establishes ownership. Control flow is the flow engine's.
func scanStmt(pass *analysis.Pass, s ast.Stmt, st state) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			checkUses(pass, rhs, st)
		}
		kills := applyKills(pass, s.Rhs, st)
		// Bind the error result so guarded uses can be excused.
		if len(kills) > 0 && len(s.Rhs) == 1 {
			if errObj := callutil.ErrorLHS(pass.TypesInfo, s.Lhs); errObj != nil {
				for _, k := range kills {
					kl := st[k]
					kl.errVar = errObj
					st[k] = kl
				}
			}
		}
		for _, lhs := range s.Lhs {
			if key := trackKey(lhs); key != "" {
				if _, dead := st[key]; dead {
					delete(st, key) // reassignment re-establishes ownership
					continue
				}
			}
			checkUses(pass, lhs, st) // e.g. b.Payload[0] = 1 after Emit
		}
	case *ast.ExprStmt:
		checkUses(pass, s.X, st)
		applyKills(pass, []ast.Expr{s.X}, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						checkUses(pass, v, st)
					}
					applyKills(pass, vs.Values, st)
					for _, name := range vs.Names {
						delete(st, name.Name)
					}
				}
			}
		}
	case *ast.DeferStmt:
		checkUses(pass, s.Call, st)
	case *ast.GoStmt:
		checkUses(pass, s.Call, st)
	case *ast.SendStmt:
		checkUses(pass, s.Chan, st)
		checkUses(pass, s.Value, st)
	case *ast.IncDecStmt:
		checkUses(pass, s.X, st)
	}
}

// applyKills records ownership transfers performed by calls within the
// expressions and returns the keys killed.
func applyKills(pass *analysis.Pass, exprs []ast.Expr, st state) []string {
	var killed []string
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // closures run later; analyzed separately
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			verb, keys := killerCall(pass, call)
			for _, key := range keys {
				st[key] = kill{verb: verb, pos: call.Pos()}
				killed = append(killed, key)
			}
			return true
		})
	}
	return killed
}

// killerCall recognizes consuming calls — any statically resolved
// callee that carries an //insane:release or //insane:transfer
// annotation in the resource registry — and returns the callee's name
// plus the canonical keys of the arguments whose ownership the call
// takes. Only pointer-to-named-type arguments with a trackable key are
// killed: value arguments (a txToken, a SlotID) carry no aliasable
// reference, and composite expressions (&x, f(y)) have no stable key —
// except the address of a field, &x.f, which names the struct x holds by
// value.
func killerCall(pass *analysis.Pass, call *ast.CallExpr) (verb string, keys []string) {
	fn := callutil.StaticCallee(pass.TypesInfo, call)
	if fn == nil || len(call.Args) == 0 {
		return "", nil
	}
	consuming := false
	for _, e := range pairfacts.Lookup(pass, fn) {
		if e.Kind == directive.PairRelease || e.Kind == directive.PairTransfer {
			consuming = true
			break
		}
	}
	if !consuming {
		return "", nil
	}
	for _, arg := range call.Args {
		if pointeeName(pass, arg) == "" {
			continue
		}
		if key := trackKey(arg); key != "" {
			keys = append(keys, key)
		}
	}
	if len(keys) == 0 {
		return "", nil
	}
	return fn.Name(), keys
}

// pointeeName returns the name of the named type an expression points
// to, or "" when the expression is not a pointer to a named type.
func pointeeName(pass *analysis.Pass, e ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	ptr, ok := tv.Type.Underlying().(*types.Pointer)
	if !ok {
		return ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// checkUses reports every appearance of a killed expression within e,
// skipping the interiors of closures.
func checkUses(pass *analysis.Pass, e ast.Expr, st state) {
	if e == nil || len(st) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		var key string
		switch n := n.(type) {
		case *ast.Ident:
			key = n.Name
		case *ast.SelectorExpr:
			key = callutil.Canon(n)
		default:
			return true
		}
		k, dead := st[key]
		if !dead {
			return true
		}
		line := pass.Fset.Position(k.pos).Line
		pass.Reportf(n.Pos(), "%s used after %s (ownership passed to the runtime at line %d)", key, k.verb, line)
		// One report per killed key per statement is enough.
		delete(st, key)
		return true
	})
}

// mentions reports whether the expression references the object.
func mentions(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
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
