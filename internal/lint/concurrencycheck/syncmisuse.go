package concurrencycheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/flow"
)

// Sync is the sync-misuse rule: intra-function channel and WaitGroup
// mistakes that panic or hang at runtime.
//
//   - close of an already-closed channel (panics);
//   - send on a channel after close in the same function (panics);
//   - wg.Add inside the spawned goroutine (races Wait: Wait can return
//     before the goroutine has registered itself);
//   - a spawned goroutine that uses a WaitGroup counted up before the
//     go statement but never calls Done (Wait hangs);
//   - a non-deferred wg.Done below an early return (Wait hangs when
//     the return path is taken).
//
// The channel rules run on the shared flow engine (internal/lint/flow)
// with the discard join: state forks at branches and is not merged
// back, so a close on one path never taints the other. Deferred closes
// run at return and are tracked separately (two deferred closes of one
// channel still panic).
var Sync = &analysis.Analyzer{
	Name: "syncmisuse",
	Doc:  "flag double close, send after close, wg.Add inside the spawned goroutine, and WaitGroup paths missing Done",
	Run:  runSync,
}

func runSync(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkCloses(pass, body)
				checkWaitGroups(pass, body)
			}
			return true
		})
	}
	return nil, nil
}

// closeState is the channel-close knowledge on one path: closed maps a
// channel's canonical expression to the close that retired it and is
// forked at branches; deferred closes run at return whichever path is
// taken, so that map is shared by every path of the function.
type closeState struct {
	closed, deferred map[string]token.Pos
}

func (c closeState) Clone() closeState {
	out := closeState{closed: make(map[string]token.Pos, len(c.closed)), deferred: c.deferred}
	for k, v := range c.closed {
		out.closed[k] = v
	}
	return out
}

// Join discards the arms: a close on one path never taints another.
func (c closeState) Join([]closeState) closeState { return c }

// checkCloses scans one function body for double close and
// send-after-close.
func checkCloses(pass *analysis.Pass, body *ast.BlockStmt) {
	flow.New(flow.Hooks[closeState]{
		NoReturn: func(call *ast.CallExpr) bool { return callutil.NoReturn(pass.TypesInfo, call) },
		Stmt: func(s ast.Stmt, st closeState) {
			switch s := s.(type) {
			case *ast.ExprStmt:
				applyCloses(pass, s.X, st, false)
			case *ast.DeferStmt:
				applyCloses(pass, s.Call, st, true)
			case *ast.SendStmt:
				if key := chanKey(pass, s.Chan); key != "" {
					if _, ok := st.closed[key]; ok {
						pass.Reportf(s.Pos(), "send on %s after close(%s) (send on a closed channel panics)", key, key)
					}
				}
				applyCloses(pass, s.Value, st, false)
			case *ast.AssignStmt:
				for _, e := range s.Rhs {
					applyCloses(pass, e, st, false)
				}
				// Reassigning the variable makes it a fresh channel.
				for _, l := range s.Lhs {
					if key := callutil.Canon(l); key != "" {
						delete(st.closed, key)
						delete(st.deferred, key)
					}
				}
			}
		},
	}).Walk(body.List, closeState{closed: make(map[string]token.Pos), deferred: make(map[string]token.Pos)})
}

// applyCloses records close(ch) calls in the expression, reporting
// double closes. Deferred closes run at return: they do not retire the
// channel for the statements that follow, but a second deferred close
// of the same channel still panics.
func applyCloses(pass *analysis.Pass, e ast.Expr, st closeState, isDefer bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
			if !ok || b.Name() != "close" || len(n.Args) != 1 {
				return true
			}
			key := chanKey(pass, n.Args[0])
			if key == "" {
				return true
			}
			if _, ok := st.closed[key]; ok {
				pass.Reportf(n.Pos(), "second close of %s (closing a closed channel panics)", key)
				return true
			}
			if _, ok := st.deferred[key]; ok {
				pass.Reportf(n.Pos(), "close of %s with a deferred close(%s) pending (closing a closed channel panics)", key, key)
				return true
			}
			if isDefer {
				st.deferred[key] = n.Pos()
			} else {
				st.closed[key] = n.Pos()
			}
		}
		return true
	})
}

// chanKey canonicalizes a channel expression for close tracking, or ""
// when the expression is not a trackable dotted chain.
func chanKey(pass *analysis.Pass, e ast.Expr) string {
	if !isChanType(pass.TypesInfo.TypeOf(e)) {
		return ""
	}
	return callutil.Canon(e)
}

// addEvent is one wg.Add call in the spawning function.
type addEvent struct {
	key string
	pos token.Pos
}

// checkWaitGroups applies the WaitGroup rules to one function body:
// every `go func(){...}` literal is checked against the WaitGroups the
// enclosing function counted up before the statement.
func checkWaitGroups(pass *analysis.Pass, body *ast.BlockStmt) {
	// Adds performed by this function outside any literal, in order.
	var adds []addEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if key, method := wgCall(pass, n); key != "" && method == "Add" {
				adds = append(adds, addEvent{key: key, pos: n.Pos()})
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			// Nested literals get their own checkWaitGroups pass from
			// runSync; don't double-report their go statements.
			return false
		}
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			// A named callee owns its Done discipline (checked where it
			// is defined); only the Add placement matters here.
			return true
		}
		checkSpawnedLit(pass, gs, lit, adds)
		return false
	})
}

// checkSpawnedLit checks one `go func(){...}` literal.
func checkSpawnedLit(pass *analysis.Pass, gs *ast.GoStmt, lit *ast.FuncLit, adds []addEvent) {
	type usage struct {
		done         bool
		deferredDone bool
		donePos      token.Pos
		passed       bool // handed to another function: Done may happen there
	}
	uses := make(map[string]*usage)
	use := func(key string) *usage {
		u := uses[key]
		if u == nil {
			u = &usage{}
			uses[key] = u
		}
		return u
	}
	var returns []token.Pos

	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if n != lit {
					return false
				}
			case *ast.GoStmt:
				return false
			case *ast.ReturnStmt:
				returns = append(returns, n.Pos())
			case *ast.DeferStmt:
				walk(n.Call, true)
				return false
			case *ast.CallExpr:
				if key, method := wgCall(pass, n); key != "" {
					switch method {
					case "Add":
						pass.Reportf(n.Pos(), "%s.Add inside the spawned goroutine races Wait; call Add before the go statement", key)
					case "Done":
						u := use(key)
						u.done = true
						if inDefer {
							u.deferredDone = true
						} else if !u.donePos.IsValid() {
							u.donePos = n.Pos()
						}
					}
					return true
				}
				// A WaitGroup argument delegates Done elsewhere.
				for _, arg := range n.Args {
					if key := wgKey(pass, arg); key != "" {
						use(key).passed = true
					}
				}
			case *ast.Ident, *ast.SelectorExpr:
				// Any other mention of the WaitGroup counts as a use, so
				// an Add before the spawn is expected to be paired with a
				// Done in here.
				if key := wgKey(pass, n.(ast.Expr)); key != "" {
					use(key)
				}
			}
			return true
		})
	}
	walk(lit.Body, false)

	// Non-deferred Done below an early return: the return path skips it.
	for key, u := range uses {
		if u.done && !u.deferredDone && u.donePos.IsValid() {
			for _, r := range returns {
				if r < u.donePos {
					pass.Reportf(u.donePos, "%s.Done is skipped when the goroutine returns early; defer it", key)
					break
				}
			}
		}
	}

	// An Add before the spawn whose goroutine uses the WaitGroup but
	// never reaches Done leaves Wait hanging.
	for _, a := range adds {
		if a.pos > gs.Pos() {
			continue
		}
		u, ok := uses[a.key]
		if !ok {
			continue // the goroutine does not touch this WaitGroup
		}
		if !u.done && !u.passed {
			pass.Reportf(gs.Pos(), "goroutine uses %s counted up at %s.Add but never calls %s.Done (Wait would hang)", a.key, a.key, a.key)
		}
	}
}

// wgCall recognizes a WaitGroup method call, returning the receiver's
// canonical expression and the method name.
func wgCall(pass *analysis.Pass, call *ast.CallExpr) (key, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return "", ""
	}
	if key := wgKey(pass, sel.X); key != "" {
		return key, sel.Sel.Name
	}
	return "", ""
}

// wgKey canonicalizes a sync.WaitGroup expression (possibly through &
// or a pointer), or returns "".
func wgKey(pass *analysis.Pass, e ast.Expr) string {
	if ue, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ue.X
	}
	if !callutil.IsNamed(callutil.Deref(pass.TypesInfo.TypeOf(e)), "sync", "WaitGroup") {
		return ""
	}
	return callutil.Canon(e)
}
