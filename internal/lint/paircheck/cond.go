package paircheck

import (
	"go/ast"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/directive"
)

// splitCond evaluates a branch condition against the incoming state
// and returns the states of the true and false sides. Effect calls
// inside the condition (`if !ten.chargeTX()`, `if !lane.push(tok)`)
// are applied per side; comparisons against nil and bare bool reads
// resolve pending conditional acquires/transfers gated on the tested
// variable; && and || are split short-circuit-accurately, attaching
// nil-check guards to tokens whose existence one conjunct hides.
func (w *walker) splitCond(cond ast.Expr, st *state) (thenSt, elseSt *state) {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op.String() == "!" {
			t, e := w.splitCond(c.X, st)
			return e, t
		}
	case *ast.BinaryExpr:
		switch c.Op.String() {
		case "&&":
			aT, aF := w.splitCond(c.X, st)
			bT, bF := w.splitCond(c.Y, aT)
			attachGuards(bF, aF, posDesc(w.pass.TypesInfo, c.X))
			return bT, merge(aF, bF)
		case "||":
			aT, aF := w.splitCond(c.X, st)
			bT, bF := w.splitCond(c.Y, aF)
			attachGuards(aT, bT, posDesc(w.pass.TypesInfo, c.X))
			attachGuards(bT, aT, posDesc(w.pass.TypesInfo, c.Y))
			return merge(aT, bT), bF
		case "==", "!=":
			if obj, isNilCmp := nilComparand(w.pass.TypesInfo, c); isNilCmp {
				thenSt, elseSt = st.Clone(), st.Clone()
				eq := c.Op.String() == "=="
				// Branch where the comparand IS nil:
				w.resolve(pick(eq, thenSt, elseSt), obj, directive.CondNilErr, true)
				w.resolve(pick(eq, elseSt, thenSt), obj, directive.CondNilErr, false)
				w.resolveGuards(thenSt, elseSt, posDesc(w.pass.TypesInfo, c))
				return thenSt, elseSt
			}
		}
	case *ast.CallExpr:
		// errors.Is(err, X): the true side proves err non-nil; the
		// false side proves nothing (err may be nil or another error).
		if obj := errorsIsTarget(w.pass.TypesInfo, c); obj != nil {
			thenSt, elseSt = st.Clone(), st.Clone()
			w.resolve(thenSt, obj, directive.CondNilErr, false)
			return thenSt, elseSt
		}
		// A conditional effect call evaluated directly as the branch
		// condition: the true side saw the effect succeed.
		if fn, effs := w.effects(c); fn != nil {
			for _, e := range effs {
				if e.Cond != directive.CondTrue {
					continue
				}
				thenSt, elseSt = st.Clone(), st.Clone()
				switch e.Kind {
				case directive.PairAcquire:
					t := w.newTok(thenSt, c, fn, e, nil)
					t.pendAcq = nil // proven on the true side
					elseSt.dropped[e.Resource] = c.Pos()
				case directive.PairTransfer:
					for _, t := range transferTargets(thenSt, e.Resource, c) {
						w.discharge(t, c.Pos(), fn)
					}
				}
				return thenSt, elseSt
			}
		}
	case *ast.Ident, *ast.SelectorExpr:
		if obj := boolObj(w.pass.TypesInfo, ast.Unparen(cond)); obj != nil {
			thenSt, elseSt = st.Clone(), st.Clone()
			w.resolve(thenSt, obj, directive.CondTrue, true)
			w.resolve(elseSt, obj, directive.CondTrue, false)
			w.resolveGuards(thenSt, elseSt, posDesc(w.pass.TypesInfo, cond))
			return thenSt, elseSt
		}
	}
	// Opaque condition: apply any release/transfer effects buried in it
	// leniently, then fork.
	w.applyNested(st, cond, nil)
	return st.Clone(), st.Clone()
}

// pick returns a when cond, else b.
func pick(cond bool, a, b *state) *state {
	if cond {
		return a
	}
	return b
}

// resolve applies branch knowledge about a gating variable to the
// tokens pending on it under the given condition kind: holds means the
// error is nil (CondNilErr) or the bool is true (CondTrue) — in both
// encodings the gated effect happened iff holds. A pending acquire
// materializes or never existed; a pending transfer discharged or
// reverted to the caller.
func (w *walker) resolve(st *state, obj types.Object, cond directive.PairCond, holds bool) {
	for _, t := range append([]*tok(nil), st.toks...) {
		if t.pendAcq.matches(obj) && t.pendAcq.cond == cond {
			if holds {
				t.pendAcq = nil
			} else {
				st.drop(t)
				st.dropped[t.resource] = t.pos
				continue
			}
		}
		if t.pendXfer.matches(obj) && t.pendXfer.cond == cond {
			if holds {
				t.status = stReleased
				t.relPos = t.pendXfer.pos
				t.relVia = t.pendXfer.via
			}
			t.pendXfer = nil
		}
	}
}

// resolveGuards resolves tokens whose guard matches the branch
// descriptor: on the side where the guard holds the token is confirmed
// (guard cleared); on the other side it never existed.
func (w *walker) resolveGuards(thenSt, elseSt *state, desc *guardDesc) {
	if desc == nil {
		return
	}
	resolve := func(s *state, holds bool) {
		for _, t := range append([]*tok(nil), s.toks...) {
			if t.guard == nil || t.guard.key != desc.key || t.guard.isBool != desc.isBool {
				continue
			}
			if t.guard.sense == (desc.sense == holds) {
				t.guard = nil
			} else {
				s.drop(t)
			}
		}
	}
	resolve(thenSt, true)
	resolve(elseSt, false)
}

// attachGuards marks tokens present in st but absent from other as
// guarded by desc: their existence is conditional on the short-circuit
// conjunct that other represents having gone the desc way.
func attachGuards(st, other *state, desc *guardDesc) {
	if st == nil || other == nil || desc == nil {
		return
	}
	for _, t := range st.toks {
		if t.guard == nil && other.find(t.id()) == nil {
			d := *desc
			t.guard = &d
		}
	}
}

// posDesc extracts the condition descriptor that holds on the true
// branch: "x != nil", "x == nil", a bool read or its negation.
func posDesc(info *types.Info, cond ast.Expr) *guardDesc {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op.String() == "!" {
			if d := posDesc(info, c.X); d != nil {
				n := *d
				n.sense = !n.sense
				return &n
			}
		}
	case *ast.BinaryExpr:
		if op := c.Op.String(); op == "==" || op == "!=" {
			if _, isNilCmp := nilComparand(info, c); isNilCmp {
				e := c.X
				if isNilIdent(info, e) {
					e = c.Y
				}
				if key := callutil.Canon(e); key != "" {
					return &guardDesc{key: key, sense: op == "!="}
				}
			}
		}
	case *ast.Ident, *ast.SelectorExpr:
		if boolObj(info, ast.Unparen(cond)) != nil {
			if key := callutil.Canon(cond); key != "" {
				return &guardDesc{key: key, isBool: true, sense: true}
			}
		}
	}
	return nil
}

// nilComparand matches `x == nil` / `x != nil` and returns the typed
// object of x when x is a plain identifier (nil otherwise; the
// comparison is still recognized for guard descriptors).
func nilComparand(info *types.Info, c *ast.BinaryExpr) (types.Object, bool) {
	var e ast.Expr
	switch {
	case isNilIdent(info, c.Y):
		e = c.X
	case isNilIdent(info, c.X):
		e = c.Y
	default:
		return nil, false
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return info.Uses[id], true
	}
	return nil, true
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// boolObj returns the object of a bool-typed identifier or selector.
func boolObj(info *types.Info, e ast.Expr) types.Object {
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	}
	if obj == nil || obj.Type() == nil {
		return nil
	}
	if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsBoolean != 0 {
		return obj
	}
	return nil
}

// errorsIsTarget matches errors.Is(err, sentinel) and returns err's
// object when err is an identifier.
func errorsIsTarget(info *types.Info, call *ast.CallExpr) types.Object {
	fn := callutil.StaticCallee(info, call)
	if fn == nil || fn.Name() != "Is" || fn.Pkg() == nil || fn.Pkg().Path() != "errors" || len(call.Args) < 1 {
		return nil
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		return info.Uses[id]
	}
	return nil
}
