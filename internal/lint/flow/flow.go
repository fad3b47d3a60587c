// Package flow is the one structured control-flow engine under the
// path-sensitive insanevet rules. It walks a function body statement by
// statement, owns everything about control structure — statement order,
// if/else chains, loops, switch/type-switch/select arms and their
// implicit fall-through arm, labelled break/continue, return and calls
// that never return — and leaves everything about meaning to its
// client: a state type that knows how to copy and merge itself, and a
// set of transfer hooks that apply one statement or expression to a
// state.
//
// The engine is structural, not a CFG: it forks the state at every
// branch (arms always start from a Clone), walks each arm, and hands the
// states that fall out of the construct to the client's Join. What a
// Join computes — a token merge, the intersection of must-hold lock
// sets, the union of may-hold sets, or simply the pre-branch state — is
// the whole difference between the rules built on it; the engine never
// knows which one it serves.
//
// Accepted approximations, shared by every client:
//
//   - No fixpoint. A loop body is walked once from the loop-entry state.
//     The state at the end of an iteration (falling off the body, or a
//     continue) goes to the IterEnd hook and is never fed back into the
//     body; if the hook keeps it, it leaves through the loop head as if
//     the next lap's condition had failed. The exit joins that with the
//     states that break out and the state the loop condition (or an
//     exhausted range) leaves on entry; `for {}` that no reachable break
//     leaves ends the path.
//   - goto ends the path and labels are not jump targets: code after an
//     unconditional jump is walked only if something structured reaches
//     it.
//   - fallthrough carries its state into the next clause's body, joined
//     with the state that clause is entered with.
//   - A for statement's post statement runs on the state that falls off
//     the body, not on states arriving by continue.
//   - Statements after a point no path reaches are not walked at all.
//   - The engine never looks inside expressions: function literals,
//     deferred calls and spawned goroutines are the client's to model.
package flow

import (
	"go/ast"
	"go/token"
)

// State is what a client threads along each path. Clone forks it at a
// branch; Join, called on the state the construct was entered with,
// merges the states (never empty) that fall out of the construct's arms
// and returns the state after it. Hooks may mutate a state in place:
// the engine never reuses a state it has handed to an arm.
type State[S any] interface {
	Clone() S
	Join(outs []S) S
}

// Hooks are a client's transfer functions. NoReturn is required; a nil
// hook does nothing (a nil Branch evaluates the condition with Eval and
// forks the state unrefined).
type Hooks[S State[S]] struct {
	// NoReturn reports a call that never returns to its caller; an
	// expression statement making one ends the path after Stmt ran.
	NoReturn func(call *ast.CallExpr) bool

	// Stmt applies one simple statement: assignment, declaration,
	// expression, send, inc/dec, and — handed over whole, since what a
	// deferred or spawned call means is rule-specific — defer and go.
	Stmt func(s ast.Stmt, st S)

	// Eval applies an expression a control statement evaluates without
	// branching on it: a switch tag, the values of a tagged case, a
	// range operand. at is the owning statement or clause.
	Eval func(at ast.Node, e ast.Expr, st S)

	// Branch refines st by a boolean condition into the state where it
	// holds and the state where it does not. at is the if or for
	// statement, or the clause of an untagged switch.
	Branch func(at ast.Node, cond ast.Expr, st S) (then, els S)

	// Exit sees each return statement with the state reaching it.
	// Falling off the end of the body is reported by Walk's result.
	Exit func(ret *ast.ReturnStmt, st S)

	// IterEnd sees the state at the end of one iteration of loop: at is
	// the body's closing brace or the continue statement, depth the
	// loop-nesting depth of the loop's body (1 for an outermost loop).
	// It reports whether the state goes on to leave the loop through
	// its head — the next lap's condition failing, the range running
	// out — or the rule has settled it at the lap boundary.
	IterEnd func(loop ast.Stmt, depth int, at token.Pos, st S) (leaves bool)
}

// Walker walks function bodies for one client.
type Walker[S State[S]] struct {
	h      Hooks[S]
	frames []*frame[S]
	label  string // pending label for the next breakable statement
}

// frame is one enclosing statement a break or continue can target.
type frame[S any] struct {
	stmt   ast.Stmt // *ast.ForStmt or *ast.RangeStmt for loops
	loop   bool
	label  string
	depth  int // loop depth inside the frame (loops only)
	breaks []S // states that broke out, joined at the statement's end
	laps   []S // loops only: iteration-end states the client keeps
	fell   []S // switch only: states at a fallthrough, for the next clause
}

// New returns a walker driving the hooks.
func New[S State[S]](h Hooks[S]) *Walker[S] { return &Walker[S]{h: h} }

// Depth is the number of loops enclosing the statement being walked.
func (w *Walker[S]) Depth() int {
	n := 0
	for _, fr := range w.frames {
		if fr.loop {
			n++
		}
	}
	return n
}

// Walk walks a function body from the entry state. It returns the
// state that falls off the end and whether any path does. Walk is
// re-entrant: a hook may walk a function literal's body with the same
// walker, and that body's breaks and labels stay its own.
func (w *Walker[S]) Walk(body []ast.Stmt, st S) (S, bool) {
	frames, label := w.frames, w.label
	w.frames, w.label = nil, ""
	defer func() { w.frames, w.label = frames, label }()
	return w.list(body, st)
}

// list walks statements in order until the path ends.
func (w *Walker[S]) list(stmts []ast.Stmt, st S) (S, bool) {
	for _, s := range stmts {
		var ok bool
		if st, ok = w.stmt(s, st); !ok {
			return st, false
		}
	}
	return st, true
}

// join merges the arms that fell through; a construct none falls out
// of ends the path.
func join[S State[S]](in S, outs []S) (S, bool) {
	if len(outs) == 0 {
		return in, false
	}
	return in.Join(outs), true
}

func (w *Walker[S]) stmt(s ast.Stmt, st S) (S, bool) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		return st, true

	case *ast.ExprStmt:
		w.simple(s, st)
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		return st, !(ok && w.h.NoReturn(call))

	case *ast.ReturnStmt:
		if w.h.Exit != nil {
			w.h.Exit(s, st)
		}
		return st, false

	case *ast.BlockStmt:
		return w.list(s.List, st)

	case *ast.LabeledStmt:
		w.label = s.Label.Name
		st, ok := w.stmt(s.Stmt, st)
		w.label = "" // a label on a non-breakable statement names nothing
		return st, ok

	case *ast.BranchStmt:
		w.branch(s, st)
		return st, false

	case *ast.IfStmt:
		st, ok := w.stmt(s.Init, st)
		if !ok {
			return st, false
		}
		then, els := w.fork(s, s.Cond, st)
		var outs []S
		if out, ok := w.list(s.Body.List, then); ok {
			outs = append(outs, out)
		}
		if out, ok := w.stmt(s.Else, els); ok {
			outs = append(outs, out)
		}
		return join(st, outs)

	case *ast.ForStmt:
		st, ok := w.stmt(s.Init, st)
		if !ok {
			return st, false
		}
		if s.Cond == nil {
			return w.loop(s, s.Body, s.Post, st, st.Clone(), nil)
		}
		body, exit := w.fork(s, s.Cond, st)
		return w.loop(s, s.Body, s.Post, st, body, []S{exit})

	case *ast.RangeStmt:
		w.eval(s, s.X, st)
		return w.loop(s, s.Body, nil, st, st.Clone(), []S{st})

	case *ast.SwitchStmt:
		st, ok := w.stmt(s.Init, st)
		if !ok {
			return st, false
		}
		w.eval(s, s.Tag, st)
		return w.clauses(s, s.Body, s.Tag == nil, st)

	case *ast.TypeSwitchStmt:
		st, ok := w.stmt(s.Init, st)
		if !ok {
			return st, false
		}
		w.simple(s.Assign, st)
		return w.clauses(s, s.Body, false, st)

	case *ast.SelectStmt:
		fr := w.push(s, false)
		var outs []S
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			arm, ok := w.stmt(cc.Comm, st.Clone())
			if ok {
				arm, ok = w.list(cc.Body, arm)
			}
			if ok {
				outs = append(outs, arm)
			}
		}
		w.pop()
		return join(st, append(outs, fr.breaks...))
	}
	// Assignments, declarations, sends, inc/dec, defer and go.
	w.simple(s, st)
	return st, true
}

// loop walks a loop body once from the body state. exits holds the
// state the loop head leaves when it stops iterating (none for a bare
// `for {}`); the states that break out join it.
func (w *Walker[S]) loop(s ast.Stmt, body *ast.BlockStmt, post ast.Stmt, in, bodySt S, exits []S) (S, bool) {
	fr := w.push(s, true)
	out, ok := w.list(body.List, bodySt)
	if ok {
		out, ok = w.stmt(post, out)
	}
	if ok {
		w.iterEnd(fr, body.Rbrace, out)
	}
	w.pop()
	outs := fr.breaks
	if len(exits) > 0 {
		outs = append(outs, fr.laps...)
	}
	return join(in, append(outs, exits...))
}

// iterEnd hands an iteration-end state to the client, and keeps it for
// the loop's exit if the client says it leaves through the head.
func (w *Walker[S]) iterEnd(fr *frame[S], at token.Pos, st S) {
	if w.h.IterEnd != nil && w.h.IterEnd(fr.stmt, fr.depth, at, st) {
		fr.laps = append(fr.laps, st)
	}
}

// clauses walks the case clauses of a switch or type switch. The case
// expressions are evaluated first, in source order: in an untagged
// switch each single-condition case refines the state the later ones
// see, and default is entered with what no case matched. With no
// default that state falls out as the implicit arm. Bodies then run in
// source order so a fallthrough state is ready when the next clause
// starts.
func (w *Walker[S]) clauses(s ast.Stmt, body *ast.BlockStmt, untagged bool, st S) (S, bool) {
	entry := make([]S, len(body.List))
	dflt := -1
	cur := st
	for i, c := range body.List {
		cc := c.(*ast.CaseClause)
		switch {
		case cc.List == nil:
			dflt = i
		case untagged && len(cc.List) == 1:
			entry[i], cur = w.fork(cc, cc.List[0], cur)
		default:
			for _, e := range cc.List {
				w.eval(cc, e, cur)
			}
			entry[i] = cur.Clone()
		}
	}
	var outs, last []S // last: what default, or no case at all, leaves
	if dflt >= 0 {
		entry[dflt] = cur.Clone()
	} else {
		last = append(last, cur)
	}
	fr := w.push(s, false)
	for i, c := range body.List {
		arm := entry[i]
		if len(fr.fell) > 0 {
			arm = arm.Join(append(fr.fell, arm))
			fr.fell = nil
		}
		out, ok := w.list(c.(*ast.CaseClause).Body, arm)
		switch {
		case !ok:
		case i == dflt:
			last = append(last, out)
		default:
			outs = append(outs, out)
		}
	}
	w.pop()
	return join(cur, append(append(outs, last...), fr.breaks...))
}

// branch routes the state at a break, continue or fallthrough to the
// frame it targets; goto (and a branch with no target) drops it.
func (w *Walker[S]) branch(s *ast.BranchStmt, st S) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	for i := len(w.frames) - 1; i >= 0; i-- {
		fr := w.frames[i]
		switch {
		case s.Tok == token.FALLTHROUGH:
			// Always the innermost frame: the enclosing switch.
			fr.fell = append(fr.fell, st)
		case s.Tok == token.GOTO, label != "" && fr.label != label, s.Tok == token.CONTINUE && !fr.loop:
			continue
		case s.Tok == token.BREAK:
			fr.breaks = append(fr.breaks, st)
		default: // continue
			w.iterEnd(fr, s.Pos(), st)
		}
		return
	}
}

// push enters a breakable statement, consuming any pending label.
func (w *Walker[S]) push(s ast.Stmt, loop bool) *frame[S] {
	fr := &frame[S]{stmt: s, loop: loop, label: w.label}
	w.label = ""
	w.frames = append(w.frames, fr)
	fr.depth = w.Depth()
	return fr
}

func (w *Walker[S]) pop() { w.frames = w.frames[:len(w.frames)-1] }

// simple hands a statement with no control structure to the client.
func (w *Walker[S]) simple(s ast.Stmt, st S) {
	if w.h.Stmt != nil {
		w.h.Stmt(s, st)
	}
}

func (w *Walker[S]) eval(at ast.Node, e ast.Expr, st S) {
	if e != nil && w.h.Eval != nil {
		w.h.Eval(at, e, st)
	}
}

// fork splits st on a condition: the client's refinement, or an
// unrefined fork after evaluating the condition.
func (w *Walker[S]) fork(at ast.Node, cond ast.Expr, st S) (then, els S) {
	if w.h.Branch != nil {
		return w.h.Branch(at, cond, st)
	}
	w.eval(at, cond, st)
	return st.Clone(), st.Clone()
}
