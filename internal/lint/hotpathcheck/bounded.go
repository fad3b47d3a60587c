package hotpathcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/callutil"
)

// clamp records one fence `if x > C { x = C }` / `if len(s) > C
// { s = s[:C] }`: after pos, obj is capped by a constant.
type clamp struct {
	obj types.Object
	pos token.Pos
}

// checkLoop reconciles the proof result (detail == "" means proven)
// with any //insane:bounded annotation on the loop line.
func (s *scanner) checkLoop(loop ast.Stmt, detail string) {
	pos := s.pass.Fset.Position(loop.Pos())
	b, annotated := s.bidx.At(pos)
	switch {
	case annotated && b.Malformed != "":
		s.pass.Reportf(b.Pos, "malformed //insane:bounded annotation: %s", b.Malformed)
		if detail != "" {
			s.flag(loop.Pos(), SevUnbounded, detail)
		}
	case annotated && detail == "":
		s.pass.Reportf(b.Pos, "//insane:bounded annotation is redundant: the loop is provably bounded")
	case annotated:
		// Verified waiver: the reason documents the external invariant.
	case detail != "":
		s.flag(loop.Pos(), SevUnbounded, detail)
	}
}

// proveFor proves a for statement bounded, returning "" on success or
// the reason it could not.
func (s *scanner) proveFor(fs *ast.ForStmt) string {
	if fs.Cond == nil {
		return "for loop is not provably bounded: it has no termination condition"
	}
	if tv, ok := s.pass.TypesInfo.Types[fs.Cond]; ok && tv.Value != nil && constant.BoolVal(tv.Value) {
		return "for loop is not provably bounded: its condition is constant-true"
	}
	for _, c := range conjuncts(fs.Cond) {
		if s.boundingConjunct(c, fs) {
			return ""
		}
	}
	return "for loop is not provably bounded: no conjunct of its condition caps a constant-stepped counter at a provable constant"
}

// conjuncts splits a condition on &&: one provably-capping conjunct
// bounds the whole loop.
func conjuncts(e ast.Expr) []ast.Expr {
	e = ast.Unparen(e)
	if be, ok := e.(*ast.BinaryExpr); ok && be.Op == token.LAND {
		return append(conjuncts(be.X), conjuncts(be.Y)...)
	}
	return []ast.Expr{e}
}

// boundingConjunct reports whether one conjunct is a comparison that
// caps a constant-initialized, constant-stepped counter of this loop at
// a provable constant (or fence-clamped) bound.
func (s *scanner) boundingConjunct(c ast.Expr, fs *ast.ForStmt) bool {
	be, ok := ast.Unparen(c).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case token.LSS, token.LEQ: // i < bound (counting up), or bound < i (counting down)
		return s.counterBound(be.X, be.Y, true, fs) || s.counterBound(be.Y, be.X, false, fs)
	case token.GTR, token.GEQ: // i > bound (counting down), or bound > i (counting up)
		return s.counterBound(be.X, be.Y, false, fs) || s.counterBound(be.Y, be.X, true, fs)
	}
	return false
}

// counterBound proves one orientation of a comparison conjunct: iter
// must be this loop's counter — constant start in Init, constant step
// in Post, stepping toward the bound (up when the comparison caps from
// above) — and bound must fold to a constant or be fence-clamped.
func (s *scanner) counterBound(iter, bound ast.Expr, up bool, fs *ast.ForStmt) bool {
	id, ok := ast.Unparen(iter).(*ast.Ident)
	if !ok {
		return false
	}
	obj := s.identObj(id)
	if obj == nil {
		return false
	}
	if !s.constInit(fs.Init, obj) {
		return false
	}
	dir, ok := s.postStep(fs.Post, obj)
	if !ok || up != (dir > 0) {
		return false
	}
	if _, ok := s.constFold(bound); ok {
		return true
	}
	if bid, ok := ast.Unparen(bound).(*ast.Ident); ok {
		if bobj := s.identObj(bid); bobj != nil && s.clampedBefore(bobj, fs.Pos()) {
			return true
		}
	}
	return false
}

// proveRange proves a range statement bounded, returning "" on success
// or the reason it could not.
func (s *scanner) proveRange(rs *ast.RangeStmt) string {
	const pre = "range loop is not provably bounded: "
	info := s.pass.TypesInfo
	if tv, ok := info.Types[rs.X]; ok && tv.Value != nil {
		return "" // range over a constant integer
	}
	t := info.TypeOf(rs.X)
	if t == nil {
		return pre + "the range operand has no type"
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		return ""
	case *types.Pointer:
		if _, ok := u.Elem().Underlying().(*types.Array); ok {
			return ""
		}
	case *types.Basic:
		if u.Info()&types.IsInteger != 0 {
			return pre + "the integer bound is not a provable constant"
		}
		if u.Info()&types.IsString != 0 {
			return pre + "the string length is data-dependent"
		}
	case *types.Slice:
		if id, ok := ast.Unparen(rs.X).(*ast.Ident); ok {
			if obj := s.identObj(id); obj != nil && s.clampedBefore(obj, rs.Pos()) {
				return ""
			}
		}
		return pre + "the slice length is not fence-checked against a constant cap"
	case *types.Map:
		return pre + "the map size is data-dependent"
	case *types.Chan:
		return pre + "the channel receive count is data-dependent"
	case *types.Signature:
		return pre + "the iterator's yield count is data-dependent"
	}
	return pre + "the range operand cannot be proven bounded"
}

// identObj resolves an identifier to its object, whether the site is a
// use or a definition.
func (s *scanner) identObj(id *ast.Ident) types.Object {
	if obj := s.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return s.pass.TypesInfo.Defs[id]
}

// constInit reports whether the loop's Init assigns obj a provable
// constant.
func (s *scanner) constInit(init ast.Stmt, obj types.Object) bool {
	as, ok := init.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || s.identObj(id) != obj {
			continue
		}
		_, ok = s.constFold(as.Rhs[i])
		return ok
	}
	return false
}

// postStep returns the direction of the loop's Post statement on obj:
// +1 for a constant positive increment, -1 for a decrement.
func (s *scanner) postStep(post ast.Stmt, obj types.Object) (int, bool) {
	switch post := post.(type) {
	case *ast.IncDecStmt:
		id, ok := ast.Unparen(post.X).(*ast.Ident)
		if !ok || s.identObj(id) != obj {
			return 0, false
		}
		if post.Tok == token.INC {
			return 1, true
		}
		return -1, true
	case *ast.AssignStmt:
		if len(post.Lhs) != 1 || len(post.Rhs) != 1 {
			return 0, false
		}
		id, ok := ast.Unparen(post.Lhs[0]).(*ast.Ident)
		if !ok || s.identObj(id) != obj {
			return 0, false
		}
		step, ok := s.constFold(post.Rhs[0])
		if !ok || step <= 0 {
			return 0, false
		}
		switch post.Tok {
		case token.ADD_ASSIGN:
			return 1, true
		case token.SUB_ASSIGN:
			return -1, true
		}
	}
	return 0, false
}

// constFold resolves an expression to a constant integer: a
// type-checker constant (literals, named constants, len of an array),
// or a call to a module function proven to return a single constant —
// locally, or through the Summary fact its package exported.
func (s *scanner) constFold(e ast.Expr) (int64, bool) {
	if v, ok := intConst(s.pass.TypesInfo, e); ok {
		return v, true
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return 0, false
	}
	fn := callutil.StaticCallee(s.pass.TypesInfo, call)
	if fn == nil {
		return 0, false
	}
	origin := fn.Origin()
	if v, ok := s.constRet[origin]; ok {
		return v, true
	}
	var sum Summary
	if s.pass.ImportObjectFact(origin, &sum) && sum.ConstBound {
		return sum.BoundVal, true
	}
	return 0, false
}

// intConst extracts a type-checker constant integer.
func intConst(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(v)
}

// clampedBefore reports whether obj was fence-clamped at a position
// before pos in this function.
func (s *scanner) clampedBefore(obj types.Object, pos token.Pos) bool {
	for _, c := range s.clamps {
		if c.obj == obj && c.pos < pos {
			return true
		}
	}
	return false
}

// collectClamp records a fence statement of the body:
//
//	if x > C  { x = C' }     — x capped
//	if len(s) > C { s = s[:C'] } — s capped
//
// with C and C' provable constants. The walk meets a fence before any
// loop after it. The check is positional, not flow-sensitive: a
// reassignment between fence and loop is not seen. That unsound edge
// is accepted — the fence idiom puts the clamp directly before the
// loop, and the alternative (full SSA) is out of proportion for a lint.
func (s *scanner) collectClamp(ifs *ast.IfStmt) {
	be, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.GTR && be.Op != token.GEQ) {
		return
	}
	if _, ok := s.constFold(be.Y); !ok {
		return
	}
	switch x := ast.Unparen(be.X).(type) {
	case *ast.Ident: // if x > C { x = C' }
		obj := s.identObj(x)
		if obj != nil && s.blockCaps(ifs.Body, obj, false) {
			s.clamps = append(s.clamps, clamp{obj: obj, pos: ifs.End()})
		}
	case *ast.CallExpr: // if len(s) > C { s = s[:C'] }
		if obj := s.lenArg(x); obj != nil && s.blockCaps(ifs.Body, obj, true) {
			s.clamps = append(s.clamps, clamp{obj: obj, pos: ifs.End()})
		}
	}
}

// lenArg resolves the object of a len(x) call on an identifier.
func (s *scanner) lenArg(call *ast.CallExpr) types.Object {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	if b, ok := s.pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "len" {
		return nil
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return s.identObj(arg)
}

// blockCaps reports whether the fence body assigns obj a constant
// (reslice == false: `x = C`) or reslices it to a constant cap
// (reslice == true: `s = s[:C]`).
func (s *scanner) blockCaps(body *ast.BlockStmt, obj types.Object, reslice bool) bool {
	for _, st := range body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			continue
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok || s.identObj(id) != obj {
			continue
		}
		if !reslice {
			if _, ok := s.constFold(as.Rhs[0]); ok {
				return true
			}
			continue
		}
		se, ok := ast.Unparen(as.Rhs[0]).(*ast.SliceExpr)
		if !ok || se.High == nil || se.Slice3 {
			continue
		}
		base, ok := ast.Unparen(se.X).(*ast.Ident)
		if !ok || s.identObj(base) != obj {
			continue
		}
		if _, ok := s.constFold(se.High); ok {
			return true
		}
	}
	return false
}
