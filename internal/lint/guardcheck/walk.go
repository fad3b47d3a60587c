package guardcheck

// The walker is guardcheck's flow-sensitive half, a client of the shared
// flow engine (internal/lint/flow): over one function body it tracks the
// set of locks held at every program point (Lock/RLock, Unlock/RUnlock,
// deferred unlocks held to function end, TryLock conditioned on its
// branch), which locals are provably fresh (initialized from a composite
// literal or new() and not yet shared), and whether execution is inside
// a spawned function literal. Every touch of a guarded field and every
// static call is recorded with that context for the resolution phases in
// guardcheck.go.
//
// The join is must-hold: where arms meet, the held sets are intersected
// and a lock is demoted to read mode when any arm held only the read
// lock — a lock is dropped from the set rather than invented. Beyond
// the engine's own approximations: a function literal that is not
// go-spawned inherits the current set (closures stored and invoked
// later are not modeled); deferred calls run with the set live at the
// defer statement.

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/flow"
	"github.com/insane-mw/insane/internal/lint/guardfacts"
)

type walker struct {
	st      *state
	fn      *fnInfo
	fresh   map[types.Object]bool
	goDepth int
	eng     *flow.Walker[lockSet]
}

func (w *walker) info() *types.Info { return w.st.pass.TypesInfo }

// walkFunc records every access and call of one function body.
func (st *state) walkFunc(fi *fnInfo) {
	w := &walker{st: st, fn: fi, fresh: make(map[types.Object]bool)}
	w.eng = flow.New(flow.Hooks[lockSet]{
		NoReturn: func(call *ast.CallExpr) bool { return callutil.NoReturn(w.info(), call) },
		Stmt:     w.stmt,
		Eval:     w.eval,
		Branch: func(_ ast.Node, cond ast.Expr, held lockSet) (then, els lockSet) {
			then, els = held.Clone(), held.Clone()
			w.cond(cond, held, then, els)
			return then, els
		},
		Exit: func(ret *ast.ReturnStmt, held lockSet) {
			for _, e := range ret.Results {
				w.expr(e, akRead, held)
			}
		},
	})
	w.eng.Walk(fi.decl.Body.List, lockSet{})
}

// stmt applies one simple statement.
func (w *walker) stmt(s ast.Stmt, held lockSet) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, akRead, held)
	case *ast.SendStmt:
		w.expr(s.Chan, akRead, held)
		w.expr(s.Value, akRead, held)
	case *ast.IncDecStmt:
		w.expr(s.X, akWrite, held)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r, akRead, held)
		}
		if s.Tok == token.DEFINE {
			w.markFresh(s.Lhs, s.Rhs)
			break // := left-hand sides are new locals, never field accesses
		}
		for _, l := range s.Lhs {
			w.expr(l, akWrite, held)
		}
	case *ast.DeclStmt:
		w.declStmt(s, held)
	case *ast.GoStmt:
		w.goStmt(s, held)
	case *ast.DeferStmt:
		if _, _, ok := w.mutexOp(s.Call); ok {
			// defer mu.Unlock(): the lock stays held to function end; other
			// deferred lock ops have no modeled effect.
			return
		}
		w.expr(s.Call, akRead, held)
	}
}

// eval applies an expression a control statement evaluates. A range
// statement also assigns its key and value.
func (w *walker) eval(at ast.Node, e ast.Expr, held lockSet) {
	s, isRange := at.(*ast.RangeStmt)
	if !isRange {
		w.expr(e, akRead, held)
		return
	}
	// Index-only range over an array reads no memory at all — len is
	// a compile-time constant — so a bare selector there is not an
	// access (the telemetry merge loops range atomic arrays this way).
	if !(s.Value == nil && w.lenOnlyRange(s.X)) {
		w.expr(s.X, akRead, held)
	}
	if s.Tok == token.ASSIGN {
		w.expr(s.Key, akWrite, held)
		w.expr(s.Value, akWrite, held)
	}
}

// cond walks a branch condition, threading TryLock/TryRLock results
// into the arm that observes them true: `if mu.TryLock() { ... }` holds
// the lock in the then-arm, `if !mu.TryLock() { return }` holds it in
// the code after. Inside && / || only the arm the operator makes
// definite receives the lock.
func (w *walker) cond(e ast.Expr, held, thenHeld, elseHeld lockSet) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			w.cond(x.X, held, elseHeld, thenHeld)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			// then-arm means both operands were true.
			scratch := held.Clone()
			w.cond(x.X, held, thenHeld, scratch)
			w.cond(x.Y, held, thenHeld, scratch)
			return
		case token.LOR:
			// else-arm means both operands were false.
			scratch := held.Clone()
			w.cond(x.X, held, scratch, elseHeld)
			w.cond(x.Y, held, scratch, elseHeld)
			return
		}
	case *ast.CallExpr:
		if verb, h, ok := w.mutexOp(x); ok {
			switch verb {
			case "TryLock":
				h.write = true
				thenHeld.add(h)
			case "TryRLock":
				thenHeld.add(h)
			}
			return
		}
	}
	w.expr(e, akRead, held)
}

func (w *walker) declStmt(s *ast.DeclStmt, held lockSet) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			w.expr(v, akRead, held)
		}
		for i, name := range vs.Names {
			// `var x T` (a fresh zero local) or `var x = &T{}`.
			if len(vs.Values) == 0 || (i < len(vs.Values) && freshInit(vs.Values[i])) {
				if obj := w.info().Defs[name]; obj != nil {
					w.fresh[obj] = true
				}
			}
		}
	}
}

func (w *walker) goStmt(s *ast.GoStmt, held lockSet) {
	for _, a := range s.Call.Args {
		w.expr(a, akRead, held)
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		w.goDepth++
		w.eng.Walk(lit.Body.List, lockSet{})
		w.goDepth--
		return
	}
	if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X, akRead, held)
	}
	if callee := callutil.StaticCallee(w.info(), s.Call); callee != nil && callee.Pkg() != nil {
		recvCanon, recvFresh := w.callReceiver(s.Call)
		w.st.calls = append(w.st.calls, callRec{
			fn: w.fn, callee: callee, pos: s.Call.Pos(),
			held: lockSet{}, recvCanon: recvCanon, recvFresh: recvFresh, isGo: true,
		})
	}
}

// expr walks an expression, recording guarded-field touches with the
// access kind the surrounding syntax implies.
func (w *walker) expr(e ast.Expr, kind accessKind, held lockSet) {
	switch e := e.(type) {
	case nil, *ast.Ident, *ast.BasicLit,
		*ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.StructType,
		*ast.InterfaceType, *ast.FuncType, *ast.Ellipsis:
	case *ast.ParenExpr:
		w.expr(e.X, kind, held)
	case *ast.SelectorExpr:
		w.recordSel(e, kind, "", held)
		w.expr(e.X, w.baseKind(kind, e.X), held)
	case *ast.CallExpr:
		w.call(e, held)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			w.expr(e.X, akAddr, held)
			return
		}
		w.expr(e.X, akRead, held)
	case *ast.StarExpr:
		// Writing through *p mutates the pointee, not the pointer-typed
		// field, which is only read here.
		w.expr(e.X, akRead, held)
	case *ast.IndexExpr:
		// &s[i] on a slice reads the header and aliases element memory;
		// the field itself cannot be written through the result, and the
		// element's own type carries its own regimes. Arrays keep the
		// address kind: their elements ARE the field's memory.
		if (kind == akAddr || kind == akAddrCall) && isSliceExpr(w.st.pass.TypesInfo, e.X) {
			kind = akRead
		}
		w.expr(e.X, kind, held)
		w.expr(e.Index, akRead, held)
	case *ast.IndexListExpr:
		w.expr(e.X, akRead, held)
		for _, i := range e.Indices {
			w.expr(i, akRead, held)
		}
	case *ast.SliceExpr:
		w.expr(e.X, akRead, held)
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			if b != nil {
				w.expr(b, akRead, held)
			}
		}
	case *ast.TypeAssertExpr:
		w.expr(e.X, akRead, held)
	case *ast.BinaryExpr:
		w.expr(e.X, akRead, held)
		w.expr(e.Y, akRead, held)
	case *ast.CompositeLit:
		structLit := false
		if t := w.info().TypeOf(e); t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			_, structLit = t.Underlying().(*types.Struct)
		}
		for _, elt := range e.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				w.expr(elt, akRead, held)
				continue
			}
			if _, isIdent := kv.Key.(*ast.Ident); !isIdent || !structLit {
				w.expr(kv.Key, akRead, held)
			}
			w.expr(kv.Value, akRead, held)
		}
	case *ast.FuncLit:
		w.eng.Walk(e.Body.List, held.Clone())
	}
}

// call handles a call expression: mutex operations mutate the held set,
// builtin delete writes its map, &arg is an atomic-compatible address
// hand-off, method receivers record akMethod accesses, and the static
// callee is recorded for need resolution.
func (w *walker) call(e *ast.CallExpr, held lockSet) {
	if verb, h, ok := w.mutexOp(e); ok {
		switch verb {
		case "Lock":
			h.write = true
			held.add(h)
		case "RLock":
			held.add(h)
		case "Unlock", "RUnlock":
			held.remove(h.lockKey, h.base)
			// TryLock outside an if-condition has no modeled effect.
		}
		return
	}
	if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
		if b, ok := w.info().Uses[id].(*types.Builtin); ok {
			for i, a := range e.Args {
				if b.Name() == "delete" && i == 0 {
					w.expr(a, akWrite, held)
					continue
				}
				w.expr(a, akRead, held)
			}
			return
		}
	}
	switch fun := ast.Unparen(e.Fun).(type) {
	case *ast.SelectorExpr:
		if s, ok := w.info().Selections[fun]; ok && s.Kind() == types.MethodVal {
			w.methodRecv(fun.X, fun.Sel.Name, held)
		} else {
			w.expr(fun.X, akRead, held)
		}
	case *ast.FuncLit:
		// Immediately invoked literal: runs here, under the current set.
		w.eng.Walk(fun.Body.List, held.Clone())
	default:
		w.expr(e.Fun, akRead, held)
	}
	for _, a := range e.Args {
		if u, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && u.Op == token.AND {
			w.expr(u.X, akAddrCall, held)
			continue
		}
		w.expr(a, akRead, held)
	}
	if callee := callutil.StaticCallee(w.info(), e); callee != nil && callee.Pkg() != nil {
		recvCanon, recvFresh := w.callReceiver(e)
		w.st.calls = append(w.st.calls, callRec{
			fn: w.fn, callee: callee, pos: e.Pos(),
			held: held.Clone(), recvCanon: recvCanon, recvFresh: recvFresh,
		})
	}
}

// methodRecv records the receiver of a method call: a guarded field used
// as receiver (s.closed.Load(), sh.counters[c].Add(1)) is an akMethod
// access, the legal shape for the atomic regime.
func (w *walker) methodRecv(x ast.Expr, method string, held lockSet) {
	x = ast.Unparen(x)
	switch x := x.(type) {
	case *ast.SelectorExpr:
		w.recordSel(x, akMethod, method, held)
		w.expr(x.X, akRead, held)
	case *ast.IndexExpr:
		if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
			w.recordSel(sel, akMethod, method, held)
			w.expr(sel.X, akRead, held)
			w.expr(x.Index, akRead, held)
			return
		}
		w.expr(x, akRead, held)
	default:
		w.expr(x, akRead, held)
	}
}

func (w *walker) callReceiver(e *ast.CallExpr) (canon string, fresh bool) {
	sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s, ok := w.info().Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", false
	}
	return types.ExprString(ast.Unparen(sel.X)), w.isFresh(sel.X)
}

// recordSel records one touch of a guarded field.
func (w *walker) recordSel(sel *ast.SelectorExpr, kind accessKind, method string, held lockSet) {
	obj, _ := w.info().Uses[sel.Sel].(*types.Var)
	if obj == nil || !obj.IsField() {
		return
	}
	fact, ok := guardfacts.Lookup(w.st.pass, obj)
	if !ok {
		return
	}
	w.st.accesses = append(w.st.accesses, accessRec{
		fn: w.fn, field: obj, fact: fact, kind: kind, method: method,
		pos: sel.Sel.Pos(), held: held.Clone(),
		base:  types.ExprString(ast.Unparen(sel.X)),
		fresh: w.isFresh(sel.X), inGo: w.goDepth > 0,
	})
}

// baseKind propagates a write or address-taking through the base of a
// selector: writing a.b.c also writes b when b is a value struct, but
// only reads it when the chain crosses a pointer.
func (w *walker) baseKind(kind accessKind, base ast.Expr) accessKind {
	if kind == akRead || kind == akMethod {
		return akRead
	}
	if t := w.info().TypeOf(base); t != nil {
		if _, ok := t.Underlying().(*types.Pointer); ok {
			return akRead
		}
	}
	return kind
}

// mutexOp recognizes a sync.Mutex/RWMutex method call and names its
// lock operand: a struct field lock keys as "pkgpath.Type.field" with
// the receiver expression as base, a plain variable (package-level or
// local mutex) keys by its object. The mode is left for the caller,
// which knows what the verb means where it stands.
func (w *walker) mutexOp(call *ast.CallExpr) (verb string, h heldLock, ok bool) {
	m, ok := callutil.MutexCall(w.info(), call)
	if !ok {
		return "", h, false
	}
	switch {
	case m.Field != "":
		h.lockKey, _ = m.Class()
		h.base = types.ExprString(ast.Unparen(m.Base))
	case m.Var.Pkg() != nil && m.Var.Parent() == m.Var.Pkg().Scope():
		h.lockKey = m.Var.Pkg().Path() + ".var." + m.Var.Name()
	default:
		h.lockKey = "local." + m.Var.Name()
	}
	return m.Verb, h, h.lockKey != ""
}

// markFresh records locals born from a composite literal or new():
// accesses through them are exempt from every regime until the object
// can have been shared, which is what lets constructors initialize
// without locks.
func (w *walker) markFresh(lhs, rhs []ast.Expr) {
	if len(lhs) != len(rhs) {
		return
	}
	for i, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok || !freshInit(rhs[i]) {
			continue
		}
		if obj := w.info().Defs[id]; obj != nil {
			w.fresh[obj] = true
		}
	}
}

func (w *walker) isFresh(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := w.info().Uses[id]
	return obj != nil && w.fresh[obj]
}

// freshInit reports an initializer producing a provably unshared
// object: &T{...}, T{...} or new(T).
func freshInit(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := ast.Unparen(x.Fun).(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

// lenOnlyRange reports whether ranging x with no value variable touches
// no memory: true when x is a plain ident/selector chain of array type
// (possibly behind one pointer), where len is a compile-time constant.
func (w *walker) lenOnlyRange(x ast.Expr) bool {
	for e := ast.Unparen(x); ; {
		switch v := e.(type) {
		case *ast.Ident:
		case *ast.SelectorExpr:
			e = ast.Unparen(v.X)
			continue
		default:
			return false
		}
		break
	}
	t := w.st.pass.TypesInfo.TypeOf(x)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, isArr := t.Underlying().(*types.Array)
	return isArr
}

// isSliceExpr reports whether e has slice type.
func isSliceExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
