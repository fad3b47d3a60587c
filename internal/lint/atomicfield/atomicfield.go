// Package atomicfield implements the insanevet rule keeping counter
// fields race-free on the runtime hot paths.
//
// The pollers, the client library and the stats snapshots touch the
// same counters concurrently, so the runtime declares them as
// sync/atomic value types (atomic.Uint64 &c.) or accesses plain fields
// exclusively through the sync/atomic functions. This rule reports the
// mistake that defeats the second discipline silently: accessing a
// field plainly (`s.n++`, `x := s.n`) when other code accesses the same
// field through atomic.Load/Add/Store/... — the mixed access is a data
// race the race detector only catches when both sides happen to run in
// one test. Taking the field's address is fine.
//
// Copying an atomic value field (`x := st.loops`, or passing it by
// value) is go vet's: every sync/atomic type but atomic.Value carries a
// noCopy, which vet's copylocks check reports, and the tree uses no
// atomic.Value.
//
// A field declared `//insane:guardedby atomic` on an //insane:shared
// struct is guardcheck's (DESIGN.md §14): its atomic regime reports
// every plain access to it, in any package, so this rule looks only at
// what one package shows it.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/analysis"
)

// Analyzer is the atomicfield rule.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc:  "flag plain accesses to fields used atomically elsewhere in the package",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Pass 1 (whole package): find fields whose address is passed to a
	// sync/atomic function, and remember where.
	atomicallyUsed := make(map[*types.Var]token.Pos)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isAtomicFuncCall(pass, call) || len(call.Args) == 0 {
				return true
			}
			if fld := addressedField(pass, call.Args[0]); fld != nil {
				if _, seen := atomicallyUsed[fld]; !seen {
					atomicallyUsed[fld] = call.Pos()
				}
			}
			return true
		})
	}

	// Pass 2: flag plain accesses to those fields.
	for _, f := range pass.Files {
		walk(f, nil, func(n ast.Node, stack []ast.Node) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return
			}
			fld := fieldOf(pass, sel)
			if fld == nil {
				return
			}
			if at, shared := atomicallyUsed[fld]; shared && plainAccess(parentOf(stack)) {
				line := pass.Fset.Position(at).Line
				pass.Reportf(sel.Pos(), "plain access to field %s, which is accessed atomically elsewhere (line %d): mixed access is a data race", sel.Sel.Name, line)
			}
		})
	}
	return nil, nil
}

// walk traverses the file keeping an ancestor stack, skipping nothing:
// atomic misuse inside closures is just as racy.
func walk(n ast.Node, stack []ast.Node, fn func(ast.Node, []ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(m, stack)
		stack = append(stack, m)
		return true
	})
}

// parentOf returns the immediate ancestor, skipping parentheses.
func parentOf(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}

// fieldOf resolves a selector to the struct field it denotes.
func fieldOf(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// isAtomicFuncCall reports whether the call invokes a sync/atomic
// package function (atomic.AddUint64, atomic.LoadInt32, ...).
func isAtomicFuncCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic"
}

// addressedField returns the struct field whose address the expression
// takes (&s.f), if any.
func addressedField(pass *analysis.Pass, e ast.Expr) *types.Var {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return fieldOf(pass, sel)
}

// plainAccess reports whether a plain field selector is a read or write
// outside the atomic API (anything but &s.f).
func plainAccess(parent ast.Node) bool {
	switch p := parent.(type) {
	case *ast.UnaryExpr:
		return p.Op != token.AND
	case nil:
		return false
	}
	return true
}
