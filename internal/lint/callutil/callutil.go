// Package callutil holds the recognisers and call-graph helpers the
// insanevet rules share: resolving the static target of a call,
// canonical tracking keys for expressions, calls that never return,
// sync.Mutex operations, the fact-graph search with its call-chain
// rendering, and function names for diagnostics. The archcheck layering
// fence forbids one rule importing a sibling rule, so there is one copy
// of each, here in the lint base layer.
package callutil

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// StaticCallee resolves the *types.Func a call statically targets, or
// nil for calls through func values.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation: f[T](...).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil // field of func type: dynamic
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // package-qualified function
		}
	}
	return nil
}

// Canon renders an identifier or dotted selector chain as a stable
// tracking key ("b", "b.inner", "env.pkt"), unwrapping parens, unary
// &/* and slice/index expressions down to their base; other shapes are
// untrackable and yield "".
func Canon(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return Canon(e.X)
	case *ast.UnaryExpr:
		return Canon(e.X)
	case *ast.StarExpr:
		return Canon(e.X)
	case *ast.SelectorExpr:
		base := Canon(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// NoReturn reports whether the call never returns to its caller:
// the panic builtin, os.Exit, runtime.Goexit, the log.Fatal family and
// testing's Fatal/Fatalf/FailNow/Skip helpers. Path-sensitive walkers
// treat such calls as path terminators.
func NoReturn(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	fn := StaticCallee(info, call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "Exit":
		return fn.Pkg() != nil && fn.Pkg().Path() == "os"
	case "Goexit":
		return fn.Pkg() != nil && fn.Pkg().Path() == "runtime"
	case "Fatal", "Fatalf", "Fatalln":
		return fn.Pkg() != nil && fn.Pkg().Path() == "log" || recvIsTesting(fn)
	case "FailNow", "SkipNow":
		return recvIsTesting(fn)
	}
	return false
}

// recvIsTesting reports whether fn is a method on a testing.T/B/F.
func recvIsTesting(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	return sig != nil && sig.Recv() != nil && IsNamed(Deref(sig.Recv().Type()), "testing")
}

// Deref returns the element type of a pointer type, and any other type
// unchanged.
func Deref(t types.Type) types.Type {
	if t != nil {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			return p.Elem()
		}
	}
	return t
}

// IsNamed reports whether t is a named type declared in the package
// with the given import path — under one of the given names, or under
// any name when none is given.
func IsNamed(t types.Type, pkgPath string, names ...string) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != pkgPath {
		return false
	}
	return len(names) == 0 || slices.Contains(names, named.Obj().Name())
}

// FuncName renders a function or method compactly: pkg.Fn, (T).M or
// (*pkg.T).M, with package qualifiers relative to the reporting pass.
func FuncName(fn *types.Func, qual types.Qualifier) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return "(" + types.TypeString(sig.Recv().Type(), qual) + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		if q := qual(fn.Pkg()); q != "" {
			return q + "." + fn.Name()
		}
	}
	return fn.Name()
}

// LHSObj returns the variable an assignment's left-hand identifier
// defines or assigns, or nil for the blank identifier and for anything
// that is not a plain identifier.
func LHSObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// IsError reports whether t is the predeclared error type.
func IsError(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// ErrorLHS returns the first error-typed variable among an
// assignment's left-hand sides: the gate a conditional effect of the
// assigned call is observed through.
func ErrorLHS(info *types.Info, lhs []ast.Expr) types.Object {
	for _, e := range lhs {
		if o := LHSObj(info, e); o != nil && o.Type() != nil && IsError(o.Type()) {
			return o
		}
	}
	return nil
}

// MutexOp is one recognised method call on a sync.Mutex or
// sync.RWMutex (or a pointer to one).
type MutexOp struct {
	// Verb is Lock, RLock, TryLock, TryRLock, Unlock or RUnlock.
	Verb string
	// X is the mutex operand: owner.field for a struct-field mutex, a
	// plain identifier for a package-level or local one.
	X ast.Expr
	// Field, Base and Owner describe a struct-field mutex: the field
	// name, the owner expression and the owner's static type (pointer
	// or value, as written). Field is "" otherwise.
	Field string
	Base  ast.Expr
	Owner types.Type
	// Var is the variable of a plain-identifier mutex, nil otherwise.
	Var types.Object
}

// MutexCall recognises a sync.Mutex/RWMutex operation.
func MutexCall(info *types.Info, call *ast.CallExpr) (MutexOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return MutexOp{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return MutexOp{}, false
	}
	if tv, ok := info.Types[sel.X]; !ok || !IsMutex(tv.Type) {
		return MutexOp{}, false
	}
	op := MutexOp{Verb: sel.Sel.Name, X: sel.X}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			op.Field, op.Base, op.Owner = x.Sel.Name, x.X, s.Recv()
		}
	case *ast.Ident:
		op.Var = info.Uses[x]
	}
	return op, op.Field != "" || op.Var != nil
}

// Class names the lock class of a struct-field mutex, lockdep style:
// the declaring named type plus the field, qualified by package path
// (id, "pkg/path.Type.field") and by package name (disp). Both are ""
// for a mutex that is not a field of a named, package-level type.
func (op MutexOp) Class() (id, disp string) {
	named, ok := Deref(op.Owner).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	obj := named.Obj()
	tail := "." + obj.Name() + "." + op.Field
	return obj.Pkg().Path() + tail, obj.Pkg().Name() + tail
}

// IsMutex reports whether t is sync.Mutex or sync.RWMutex, or a pointer
// to one.
func IsMutex(t types.Type) bool { return IsNamed(Deref(t), "sync", "Mutex", "RWMutex") }

// Search is one traversal of a call (or lock) graph. It remembers how
// each node was first reached, so a finding deep in the graph can name
// the chain that leads to it from a root.
type Search[N comparable] struct {
	seen   map[N]bool
	parent map[N]N
	queue  []N
}

// NewSearch starts a traversal at the roots.
func NewSearch[N comparable](roots ...N) *Search[N] {
	s := &Search[N]{seen: make(map[N]bool), parent: make(map[N]N)}
	for _, r := range roots {
		if !s.seen[r] {
			s.seen[r] = true
			s.queue = append(s.queue, r)
		}
	}
	return s
}

// Reach records that the search got to `to` by way of `from`, and
// reports whether that is the first time it got there at all.
func (s *Search[N]) Reach(from, to N) bool {
	if s.seen[to] {
		return false
	}
	s.seen[to] = true
	s.parent[to] = from
	return true
}

// Seen reports whether the search has reached n.
func (s *Search[N]) Seen(n N) bool { return s.seen[n] }

// BFS visits every node reachable from the roots breadth-first, each
// once, so Chain is a shortest path; visit returns the node's
// successors.
func (s *Search[N]) BFS(visit func(n N) []N) {
	for len(s.queue) > 0 {
		n := s.queue[0]
		s.queue = s.queue[1:]
		for _, next := range visit(n) {
			if s.Reach(n, next) {
				s.queue = append(s.queue, next)
			}
		}
	}
}

// Chain returns the path the search took to n, root first.
func (s *Search[N]) Chain(n N) []N {
	chain := []N{n}
	for {
		p, ok := s.parent[n]
		if !ok {
			break
		}
		chain = append(chain, p)
		n = p
	}
	slices.Reverse(chain)
	return chain
}

// ChainText renders a call chain for a diagnostic: "a -> b -> c".
func ChainText(chain []*types.Func, qual types.Qualifier) string {
	names := make([]string, len(chain))
	for i, fn := range chain {
		names[i] = FuncName(fn, qual)
	}
	return strings.Join(names, " -> ")
}

// HotChainSuffix is the tail of a hot-path finding: which root reaches
// the function holding it, and how. chain runs from the root.
func HotChainSuffix(chain []*types.Func, qual types.Qualifier) string {
	root := FuncName(chain[0], qual)
	if len(chain) == 1 {
		return " in hot-path root " + root
	}
	return " reachable from hot-path root " + root + ": " + ChainText(chain, qual)
}
