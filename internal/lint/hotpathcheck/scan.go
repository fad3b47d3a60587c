package hotpathcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/directive"
)

// scanBody summarizes one function body into sum in a single walk: the
// flagged operations that survive suppression, each loop proven
// bounded or recorded, and the outgoing module-internal calls.
func scanBody(pass *analysis.Pass, idx *directive.Index, bidx *directive.Lines[*directive.Bounded], constRet map[*types.Func]int64, fd *ast.FuncDecl, sum *Summary) {
	s := &scanner{
		pass:     pass,
		idx:      idx,
		bidx:     bidx,
		constRet: constRet,
		sum:      sum,
		skip:     make(map[ast.Node]bool),
		seen:     make(map[*types.Func]bool),
		results:  resultTypes(pass, fd),
	}
	s.walk(fd.Body)
	// Capacity evidence: an explicit cap() read anywhere in the
	// function is taken as proof the author reasoned about growth, so
	// append is accepted (the Cache.Put batch-drain idiom). The read may
	// follow the append, so appends are judged once the walk is done.
	if !s.hasCap {
		for _, call := range s.appends {
			s.flag(call.Pos(), SevAlloc, exprText(call)+" without capacity evidence can grow the backing array")
		}
	}
}

// resultTypes lists the declared result types, for return boxing.
func resultTypes(pass *analysis.Pass, fd *ast.FuncDecl) []types.Type {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []types.Type
	for i := 0; i < sig.Results().Len(); i++ {
		out = append(out, sig.Results().At(i).Type())
	}
	return out
}

// scanner walks one function body collecting ops, loop proofs and call
// edges into its summary.
type scanner struct {
	pass     *analysis.Pass
	idx      *directive.Index
	bidx     *directive.Lines[*directive.Bounded]
	constRet map[*types.Func]int64
	sum      *Summary
	seen     map[*types.Func]bool // callees already in sum.Calls
	skip     map[ast.Node]bool    // channel ops already accounted to a select
	results  []types.Type
	hasCap   bool
	appends  []*ast.CallExpr // judged against hasCap after the walk
	clamps   []clamp         // fences seen so far, in walk order
	loop     int             // enclosing for/range depth
}

// flag records one op unless a //lint:ignore directive waives it.
func (s *scanner) flag(pos token.Pos, sev Severity, msg string) {
	if s.idx.Suppresses(s.pass.Fset.Position(pos), name) {
		return
	}
	s.sum.Ops = append(s.sum.Ops, Op{Pos: pos, Sev: sev, Msg: msg})
}

// walk dispatches on one node and recurses; it is a hand-rolled
// ast.Inspect so loop depth and select membership stay accurate. Each
// loop is proven bounded (or recorded) as the walk enters it.
func (s *scanner) walk(n ast.Node) {
	depth := 0
	switch n := n.(type) {
	case *ast.ForStmt:
		s.checkLoop(n, s.proveFor(n))
		depth = 1
	case *ast.RangeStmt:
		s.checkLoop(n, s.proveRange(n))
		depth = 1
	case *ast.FuncLit:
		// The literal's body belongs to a different function; only the
		// closure value itself concerns the enclosing hot path.
		s.flagFuncLit(n)
		return
	}
	s.loop += depth
	ast.Inspect(n, s.dispatch(n))
	s.loop -= depth
}

// dispatch adapts walk's per-node handling to ast.Inspect, delegating
// loop and func-literal subtrees back to walk for depth tracking.
func (s *scanner) dispatch(top ast.Node) func(ast.Node) bool {
	return func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if n != top {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
				s.walk(n)
				return false
			}
		}
		s.visit(n)
		return true
	}
}

// visit applies the hot-path rules to one node.
func (s *scanner) visit(n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		s.visitCall(n)

	case *ast.IfStmt:
		s.collectClamp(n)

	case *ast.CompositeLit:
		t := s.pass.TypesInfo.TypeOf(n)
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Slice:
			s.flag(n.Pos(), SevAlloc, "slice literal "+exprText(n)+" allocates")
		case *types.Map:
			s.flag(n.Pos(), SevAlloc, "map literal "+exprText(n)+" allocates")
		case *types.Struct:
			s.boxedFields(n, t)
		}

	case *ast.UnaryExpr:
		switch n.Op {
		case token.AND:
			if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				if t := s.pass.TypesInfo.TypeOf(lit); t != nil {
					if _, isStruct := t.Underlying().(*types.Struct); isStruct {
						s.flag(n.Pos(), SevAlloc, "composite literal "+exprText(n)+" escapes to the heap")
					}
				}
			}
		case token.ARROW:
			if !s.skip[n] {
				s.flag(n.Pos(), SevBlock, "channel receive "+exprText(n)+" can block")
			}
		}

	case *ast.SendStmt:
		if !s.skip[n] {
			s.flag(n.Pos(), SevBlock, "channel send to "+exprText(n.Chan)+" can block")
		}

	case *ast.SelectStmt:
		s.visitSelect(n)

	case *ast.GoStmt:
		s.flag(n.Pos(), SevAlloc, "go statement spawns a goroutine")

	case *ast.DeferStmt:
		if s.loop > 0 {
			s.flag(n.Pos(), SevAlloc, "defer inside a loop allocates per iteration")
		}

	case *ast.BinaryExpr:
		if n.Op == token.ADD && isString(s.pass.TypesInfo.TypeOf(n)) {
			s.flag(n.Pos(), SevAlloc, "string concatenation "+exprText(n)+" allocates")
		}

	case *ast.AssignStmt:
		s.visitAssign(n)

	case *ast.ValueSpec:
		if n.Type == nil {
			return
		}
		dst := s.pass.TypesInfo.TypeOf(n.Type)
		for _, v := range n.Values {
			if boxes(dst, s.pass.TypesInfo.TypeOf(v)) {
				s.flag(v.Pos(), SevAlloc, exprText(v)+" is boxed into interface "+typeText(dst))
			}
		}

	case *ast.ReturnStmt:
		if len(n.Results) != len(s.results) {
			return // naked return or multi-value call
		}
		for i, res := range n.Results {
			if boxes(s.results[i], s.pass.TypesInfo.TypeOf(res)) {
				s.flag(res.Pos(), SevAlloc, "return value "+exprText(res)+" is boxed into interface "+typeText(s.results[i]))
			}
		}
	}
}

// visitAssign flags map writes, string +=, and interface boxing.
func (s *scanner) visitAssign(n *ast.AssignStmt) {
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(s.pass.TypesInfo.TypeOf(n.Lhs[0])) {
		s.flag(n.Pos(), SevAlloc, "string concatenation "+exprText(n.Lhs[0])+" += ... allocates")
	}
	for _, lhs := range n.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := s.pass.TypesInfo.TypeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					s.flag(lhs.Pos(), SevAlloc, "map assignment "+exprText(lhs)+" can allocate")
				}
			}
		}
	}
	if len(n.Lhs) != len(n.Rhs) {
		return // multi-value unpacking: boxing happens in the callee
	}
	for i, lhs := range n.Lhs {
		dst := s.pass.TypesInfo.TypeOf(lhs)
		if boxes(dst, s.pass.TypesInfo.TypeOf(n.Rhs[i])) {
			s.flag(n.Rhs[i].Pos(), SevAlloc, exprText(n.Rhs[i])+" is boxed into interface "+typeText(dst))
		}
	}
}

// visitSelect accounts a select's communication ops to the select
// itself: with a default clause the select never blocks; without one
// it does, and is flagged once.
func (s *scanner) visitSelect(n *ast.SelectStmt) {
	hasDefault := false
	for _, stmt := range n.Body.List {
		clause, ok := stmt.(*ast.CommClause)
		if !ok {
			continue
		}
		if clause.Comm == nil {
			hasDefault = true
			continue
		}
		switch comm := clause.Comm.(type) {
		case *ast.SendStmt:
			s.skip[comm] = true
		case *ast.ExprStmt:
			if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				s.skip[u] = true
			}
		case *ast.AssignStmt:
			for _, rhs := range comm.Rhs {
				if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					s.skip[u] = true
				}
			}
		}
	}
	if !hasDefault {
		s.flag(n.Pos(), SevBlock, "select without default can block")
	}
}

// flagFuncLit flags a func literal that captures enclosing variables
// by reference (a closure allocation); a capture-free literal is a
// static function value and stays clean.
func (s *scanner) flagFuncLit(lit *ast.FuncLit) {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured != "" {
			return captured == ""
		}
		v, ok := s.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Free variable: declared outside the literal but not at
		// package scope.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			if v.Parent() != nil && v.Parent().Parent() != types.Universe && !isPackageScoped(v) {
				captured = v.Name()
			}
		}
		return true
	})
	if captured != "" {
		s.flag(lit.Pos(), SevAlloc, "func literal captures "+captured+" by reference and allocates a closure")
	}
}

// isPackageScoped reports whether the var is declared at package scope.
func isPackageScoped(v *types.Var) bool {
	return v.Pkg() != nil && v.Pkg().Scope() == v.Parent()
}

// boxedFields flags struct-literal fields whose interface type forces
// boxing of a non-pointer-shaped value.
func (s *scanner) boxedFields(lit *ast.CompositeLit, t types.Type) {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	fieldByName := func(name string) *types.Var {
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == name {
				return st.Field(i)
			}
		}
		return nil
	}
	for i, elt := range lit.Elts {
		var dst types.Type
		var val ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			f := fieldByName(key.Name)
			if f == nil {
				continue
			}
			dst, val = f.Type(), kv.Value
		} else {
			if i >= st.NumFields() {
				continue
			}
			dst, val = st.Field(i).Type(), elt
		}
		if boxes(dst, s.pass.TypesInfo.TypeOf(val)) {
			s.flag(val.Pos(), SevAlloc, exprText(val)+" is boxed into interface field "+typeText(dst))
		}
	}
}

// boxes reports whether assigning src into dst heap-allocates: dst is
// an interface and src a concrete, non-pointer-shaped type. Pointer,
// channel, map, func and unsafe.Pointer values fit in an interface
// word without boxing.
func boxes(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	if !types.IsInterface(dst) || types.IsInterface(src) {
		return false
	}
	if b, ok := src.(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		if b.Kind() == types.UntypedNil {
			return false
		}
		src = types.Default(src)
	}
	return !isPointerShaped(src)
}

// isPointerShaped reports whether values of t occupy exactly one
// pointer word (and so convert to interface without allocating).
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// exprText renders an expression compactly for diagnostics.
func exprText(e ast.Expr) string {
	s := types.ExprString(e)
	if len(s) > 48 {
		s = s[:45] + "..."
	}
	return s
}

// typeText renders a type compactly for diagnostics.
func typeText(t types.Type) string {
	s := types.TypeString(t, func(p *types.Package) string { return p.Name() })
	if len(s) > 48 {
		s = s[:45] + "..."
	}
	return s
}
