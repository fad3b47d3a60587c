// Package atomicfield implements the insanevet rule keeping counter
// fields race-free on the runtime hot paths.
//
// The pollers, the client library and the stats snapshots touch the
// same counters concurrently, so the runtime declares them as
// sync/atomic value types (atomic.Uint64 &c.) or accesses plain fields
// exclusively through the sync/atomic functions. Two mistakes defeat
// that discipline silently:
//
//   - copying an atomic value field (`x := st.loops` or passing
//     `st.loops` by value): the copy detaches from the shared counter
//     and future Loads read a stale snapshot;
//   - accessing a field plainly (`s.n++`, `x := s.n`) when other code
//     accesses the same field through atomic.Load/Add/Store/...: the
//     mixed access is a data race the race detector only catches when
//     both sides happen to run in one test.
//
// Taking the address of an atomic field and calling its methods are,
// of course, fine; composite-literal initialization of a not-yet-shared
// struct is also accepted.
//
// The rule shares the //insane:shared regime registry with guardcheck
// (DESIGN.md §14): a field declared `//insane:guardedby atomic` is in
// the atomic family even when this package never passes its address to
// a sync/atomic function — the Regime facts travel the whole-program
// dependency closure, so one annotation drives both analyzers across
// package boundaries. Malformed annotations are guardcheck's findings;
// this pass consumes the registry silently.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/directive"
	"github.com/insane-mw/insane/internal/lint/guardfacts"
)

// Analyzer is the atomicfield rule.
var Analyzer = &analysis.Analyzer{
	Name:      "atomicfield",
	Doc:       "flag copies of atomic value fields and plain accesses to fields used atomically elsewhere",
	Run:       run,
	FactTypes: []analysis.Fact{(*guardfacts.Regime)(nil)},
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Export this package's shared-struct regime declarations into the
	// fact store. guardcheck owns the annotation diagnostics, so the
	// problems are dropped here — reporting them twice would double
	// every malformed-spec finding in the suite.
	guardfacts.Export(pass)

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

	// Pass 2: flag misuses of both field families.
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
			parent := parentOf(stack)
			if callutil.IsNamed(fld.Type(), "sync/atomic") {
				if usedAsValue(parent, sel) {
					pass.Reportf(sel.Pos(), "%s field %s copied by value: use its methods (Load/Store/Add) or take its address", typeString(fld.Type()), sel.Sel.Name)
				}
				return
			}
			if at, shared := atomicallyUsed[fld]; shared && plainAccess(parent, sel) {
				line := pass.Fset.Position(at).Line
				pass.Reportf(sel.Pos(), "plain access to field %s, which is accessed atomically elsewhere (line %d): mixed access is a data race", sel.Sel.Name, line)
				return
			}
			// The regime check only bites on plain scalars, where a bare
			// read/write races with the atomic ops used elsewhere. Fields
			// whose type is (an aggregate of) sync/atomic value types
			// enforce the discipline through their method set already —
			// indexing into [N]atomic.Uint64 is how it's used correctly.
			if r, ok := guardfacts.Lookup(pass, fld); ok && r.R.Kind == directive.RegimeAtomic &&
				plainScalar(fld.Type()) && plainAccess(parent, sel) {
				pass.Reportf(sel.Pos(), "plain access to field %s, declared //insane:guardedby atomic on %s.%s: mixed access is a data race", sel.Sel.Name, r.Struct, fld.Name())
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

// plainScalar reports whether t is a bare scalar (integer, pointer,
// unsafe.Pointer) — the shapes sync/atomic free functions operate on,
// and the only shapes where a plain access can race with them.
func plainScalar(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsInteger != 0 || u.Kind() == types.UnsafePointer
	case *types.Pointer:
		return true
	}
	return false
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

// usedAsValue reports whether an atomic-typed selector is used as a
// value (copied) rather than through a method call or its address.
func usedAsValue(parent ast.Node, sel *ast.SelectorExpr) bool {
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// st.loops.Load(): sel is the X of a method selector.
		return p.X != sel
	case *ast.UnaryExpr:
		return p.Op != token.AND
	case nil:
		return false
	}
	return true
}

// plainAccess reports whether a plain field selector is a read or write
// outside the atomic API (anything but &s.f).
func plainAccess(parent ast.Node, sel *ast.SelectorExpr) bool {
	switch p := parent.(type) {
	case *ast.UnaryExpr:
		return p.Op != token.AND
	case nil:
		return false
	}
	return true
}

// typeString renders the field type compactly ("atomic.Uint64").
func typeString(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return t.String()
	}
	return "atomic." + named.Obj().Name()
}
