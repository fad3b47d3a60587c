package concurrencycheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/callutil"
)

// summarize builds the GoSummary of one function body: its loops with
// their stop signals, run-forever calls, shutdown signals performed,
// and outgoing module-internal calls. Function literals and nested go
// statements are skipped — literals only run if called (dynamically),
// and a nested go statement is its own root.
func summarize(pass *analysis.Pass, body *ast.BlockStmt) *GoSummary {
	s := &goScanner{
		pass: pass,
		sum:  &GoSummary{},
		seen: make(map[*types.Func]bool),
	}
	// Labels are needed to decide whether a labeled break exits a loop.
	labels := make(map[ast.Node]string)
	ast.Inspect(body, func(n ast.Node) bool {
		if ls, ok := n.(*ast.LabeledStmt); ok {
			labels[ls.Stmt] = ls.Label.Name
		}
		return true
	})
	s.labels = labels
	s.walk(body)
	return s.sum
}

type goScanner struct {
	pass   *analysis.Pass
	sum    *GoSummary
	seen   map[*types.Func]bool
	labels map[ast.Node]string
}

func (s *goScanner) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false
		case *ast.ForStmt:
			if n.Cond == nil {
				s.sum.Loops = append(s.sum.Loops, s.analyzeLoop(n, n.Body))
			}
		case *ast.RangeStmt:
			if isChanType(s.pass.TypesInfo.TypeOf(n.X)) {
				// A range over a channel runs until the channel is
				// closed: infinite, with the close as its one exit.
				l := LoopSum{Infinite: true, HasExit: true}
				if m := chanMech(s.pass.TypesInfo, n.X); m.Kind != "" {
					l.Mechs = []Mech{m}
				}
				s.sum.Loops = append(s.sum.Loops, l)
			}
		case *ast.CallExpr:
			s.call(n)
		}
		return true
	})
}

// call classifies one call: shutdown signal, run-forever library call,
// or module-internal edge.
func (s *goScanner) call(call *ast.CallExpr) {
	info := s.pass.TypesInfo

	// Builtin close(ch) is the canonical stop signal.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "close" && len(call.Args) == 1 {
				s.sum.Stops = append(s.sum.Stops, chanMech(info, call.Args[0]))
			}
			return
		}
	}

	// Calling a context.CancelFunc value cancels the context.
	if t := info.TypeOf(call.Fun); t != nil && callutil.IsNamed(t, "context", "CancelFunc") {
		s.sum.Stops = append(s.sum.Stops, Mech{Kind: "context", Short: "cancel()"})
		return
	}

	callee := callutil.StaticCallee(info, call)
	if callee == nil {
		return
	}

	// A closure handed to (*sync.Once).Do runs synchronously in the
	// caller — or an earlier call already ran it, in which case the
	// signal was already sent — so its signals count as the caller's
	// (the exactly-once channel-close idiom in shutdown paths).
	if callee.FullName() == "(*sync.Once).Do" && len(call.Args) == 1 {
		if lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit); ok {
			s.walk(lit.Body)
		}
		return
	}

	// Storing an atomic field is a stop-flag signal.
	if callee.Name() == "Store" && isAtomicType(recvTypeOf(callee)) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			s.sum.Stops = append(s.sum.Stops, flagMech(info, sel.X))
		}
		return
	}

	origin := callee.Origin()
	pkg := origin.Pkg()
	if pkg == nil {
		return
	}
	if pkg == s.pass.Pkg || s.hasSummary(origin) {
		if !s.seen[origin] {
			s.seen[origin] = true
			s.sum.Calls = append(s.sum.Calls, origin)
		}
		return
	}
	full := origin.FullName()
	if m, ok := foreverFuncs[full]; ok {
		s.sum.Forever = append(s.sum.Forever, ForeverCall{Name: full, Mech: m})
	}
	if m, ok := serverStopFuncs[full]; ok {
		s.sum.Stops = append(s.sum.Stops, m)
	}
}

// hasSummary reports whether a GoSummary fact was exported for fn
// (true for every function of an already-analyzed module package).
func (s *goScanner) hasSummary(fn *types.Func) bool {
	var sum GoSummary
	return s.pass.ImportObjectFact(fn, &sum)
}

// analyzeLoop inspects an infinite loop: whether any statement exits
// it, and which recognized stop signals guard exits.
func (s *goScanner) analyzeLoop(loop ast.Stmt, body *ast.BlockStmt) LoopSum {
	l := LoopSum{Infinite: true}
	label := s.labels[loop]
	info := s.pass.TypesInfo

	// exits reports whether executing st can leave the loop: return,
	// panic, goto, or a break that targets this loop. depth counts the
	// break targets (for/switch/select) nested below the loop, so an
	// unlabeled break only counts at depth 0 — `break` inside a select
	// leaves the select, not the loop.
	var exits func(st ast.Stmt, depth int) bool
	exitsList := func(list []ast.Stmt, depth int) bool {
		any := false
		for _, st := range list {
			if exits(st, depth) {
				any = true
			}
		}
		return any
	}
	exits = func(st ast.Stmt, depth int) bool {
		switch st := st.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.BranchStmt:
			switch st.Tok {
			case token.BREAK:
				if st.Label == nil {
					return depth == 0
				}
				return label != "" && st.Label.Name == label
			case token.GOTO:
				return true // may jump out; conservative
			}
			return false
		case *ast.ExprStmt:
			call, ok := ast.Unparen(st.X).(*ast.CallExpr)
			return ok && callutil.NoReturn(info, call)
		case *ast.IfStmt:
			out := exitsList(st.Body.List, depth)
			if st.Else != nil && exits(st.Else, depth) {
				out = true
			}
			if out {
				if m, ok := condFlagMech(info, st.Cond); ok {
					l.Mechs = appendMechs(l.Mechs, []Mech{m})
				}
			}
			return out
		case *ast.SelectStmt:
			any := false
			for _, c := range st.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if exitsList(cc.Body, depth+1) {
					any = true
					if m, ok := commMech(info, cc.Comm); ok {
						l.Mechs = appendMechs(l.Mechs, []Mech{m})
					}
				}
			}
			return any
		case *ast.SwitchStmt:
			return s.clausesExit(st.Body, depth, exitsList)
		case *ast.TypeSwitchStmt:
			return s.clausesExit(st.Body, depth, exitsList)
		case *ast.ForStmt:
			return exitsList(st.Body.List, depth+1)
		case *ast.RangeStmt:
			return exitsList(st.Body.List, depth+1)
		case *ast.BlockStmt:
			return exitsList(st.List, depth)
		case *ast.LabeledStmt:
			return exits(st.Stmt, depth)
		}
		return false
	}
	l.HasExit = exitsList(body.List, 0)
	return l
}

func (s *goScanner) clausesExit(body *ast.BlockStmt, depth int, exitsList func([]ast.Stmt, int) bool) bool {
	any := false
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			if exitsList(cc.Body, depth+1) {
				any = true
			}
		}
	}
	return any
}

// commMech extracts the stop signal of a select comm clause: the
// channel received in `case <-x:` or `case v := <-x:`.
func commMech(info *types.Info, comm ast.Stmt) (Mech, bool) {
	var recv ast.Expr
	switch comm := comm.(type) {
	case *ast.ExprStmt:
		recv = comm.X
	case *ast.AssignStmt:
		if len(comm.Rhs) == 1 {
			recv = comm.Rhs[0]
		}
	}
	ue, ok := ast.Unparen(recv).(*ast.UnaryExpr)
	if !ok || ue.Op != token.ARROW {
		return Mech{}, false
	}
	m := chanMech(info, ue.X)
	return m, m.Kind != ""
}

// condFlagMech recognizes an atomic stop-flag read guarding an if
// condition, e.g. `if p.stopped.Load() { return }`.
func condFlagMech(info *types.Info, cond ast.Expr) (Mech, bool) {
	var out Mech
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Load" {
			return true
		}
		if !isAtomicType(info.TypeOf(sel.X)) {
			return true
		}
		out = flagMech(info, sel.X)
		found = true
		return false
	})
	return out, found
}

// chanMech builds the stop mechanism of a channel expression: a
// ctx.Done() call, a field of a named type, or a bare variable.
func chanMech(info *types.Info, e ast.Expr) Mech {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			if callutil.IsNamed(info.TypeOf(sel.X), "context", "Context") {
				return Mech{Kind: "context", Short: "ctx.Done()"}
			}
		}
		return Mech{} // channel-returning call: not a recognized stop signal
	case *ast.SelectorExpr:
		if full, short := namedOwner(info, e.X); full != "" {
			return Mech{Kind: "chan", Type: full, Field: e.Sel.Name, Short: short + "." + e.Sel.Name}
		}
		return Mech{Kind: "chan", Field: e.Sel.Name, Short: e.Sel.Name}
	case *ast.Ident:
		return Mech{Kind: "chan", Field: e.Name, Short: e.Name}
	}
	return Mech{}
}

// flagMech builds the stop mechanism of an atomic flag expression
// (`x.stopped` in `x.stopped.Load()` / `.Store(...)`).
func flagMech(info *types.Info, e ast.Expr) Mech {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if full, short := namedOwner(info, e.X); full != "" {
			return Mech{Kind: "flag", Type: full, Field: e.Sel.Name, Short: short + "." + e.Sel.Name}
		}
		return Mech{Kind: "flag", Field: e.Sel.Name, Short: e.Sel.Name}
	case *ast.Ident:
		return Mech{Kind: "flag", Field: e.Name, Short: e.Name}
	}
	return Mech{Kind: "flag"}
}

// namedOwner resolves an expression to its named type: the full
// (package-path-qualified) identity and a short pkg.Type display form.
func namedOwner(info *types.Info, e ast.Expr) (full, short string) {
	named, ok := callutil.Deref(info.TypeOf(e)).(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	full = types.TypeString(named, nil)
	short = obj.Name()
	if obj.Pkg() != nil {
		short = obj.Pkg().Name() + "." + obj.Name()
	}
	return full, short
}

// recvTypeOf returns the receiver type of a method, or nil.
func recvTypeOf(fn *types.Func) types.Type {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// isAtomicType reports whether t (possibly a pointer) is one of the
// sync/atomic value types.
func isAtomicType(t types.Type) bool { return callutil.IsNamed(callutil.Deref(t), "sync/atomic") }

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// foreverFuncs are library functions that run until an associated
// shutdown. An empty Mech marks a call nothing can stop (the
// package-level net/http entry points build an unreachable Server).
var foreverFuncs = map[string]Mech{
	"(*net/http.Server).Serve":             {Kind: "server", Type: "net/http.Server", Short: "net/http.Server"},
	"(*net/http.Server).ServeTLS":          {Kind: "server", Type: "net/http.Server", Short: "net/http.Server"},
	"(*net/http.Server).ListenAndServe":    {Kind: "server", Type: "net/http.Server", Short: "net/http.Server"},
	"(*net/http.Server).ListenAndServeTLS": {Kind: "server", Type: "net/http.Server", Short: "net/http.Server"},
	"net/http.ListenAndServe":              {},
	"net/http.ListenAndServeTLS":           {},
	"net/http.Serve":                       {},
	"net/http.ServeTLS":                    {},
}

// serverStopFuncs are library calls that end a matching foreverFuncs
// call.
var serverStopFuncs = map[string]Mech{
	"(*net/http.Server).Close":    {Kind: "server", Type: "net/http.Server", Short: "net/http.Server"},
	"(*net/http.Server).Shutdown": {Kind: "server", Type: "net/http.Server", Short: "net/http.Server"},
}
