package paircheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/directive"
	"github.com/insane-mw/insane/internal/lint/flow"
)

// walker verifies one function body against the pair convention. The
// control flow is the shared flow engine's (internal/lint/flow); the
// walker supplies the transfer functions and, through state.Join, the
// token merge and the kill-set join.
type walker struct {
	pass      *analysis.Pass
	eng       *flow.Walker[*state]
	sig       *types.Signature
	isLit     bool
	declared  map[string]directive.PairCond // declared acquire resources
	skip      map[string]bool               // declared release/transfer resources
	waived    map[string]bool
	waiverHit map[string]bool
	hasEffect map[string]bool // resource -> body calls an annotated function for it
	nonLocal  map[types.Object]bool
	bodyEnd   token.Pos
	reported  map[string]bool
	doubled   map[token.Pos]bool // calls reported as a double release
}

// newWalker returns a walker for one body, with nothing declared.
func newWalker(pass *analysis.Pass, body *ast.BlockStmt) *walker {
	w := &walker{
		pass:      pass,
		declared:  make(map[string]directive.PairCond),
		skip:      make(map[string]bool),
		waived:    make(map[string]bool),
		waiverHit: make(map[string]bool),
		hasEffect: effectCallsIn(pass, body),
		nonLocal:  make(map[types.Object]bool),
		bodyEnd:   body.Rbrace,
		reported:  make(map[string]bool),
		doubled:   make(map[token.Pos]bool),
	}
	w.eng = flow.New(flow.Hooks[*state]{
		NoReturn: func(call *ast.CallExpr) bool { return callutil.NoReturn(pass.TypesInfo, call) },
		Stmt: func(s ast.Stmt, st *state) {
			w.balance(s, st)
			w.own(s, st)
		},
		Eval: func(_ ast.Node, e ast.Expr, st *state) {
			w.checkUses(st, e)
			w.applyNested(st, e, nil)
		},
		Branch: w.branch,
		Exit: func(ret *ast.ReturnStmt, st *state) {
			w.checkUses(st, ret.Results...)
			w.doExit(st, ret)
		},
		// A unit still held at the lap boundary is reported there and
		// then; the state goes no further.
		IterEnd: func(loop ast.Stmt, depth int, at token.Pos, st *state) bool {
			w.iterEndAt(st, at, depth, loop.Pos())
			return false
		},
	})
	return w
}

// verify walks the body and checks the exit that falls off its end.
func (w *walker) verify(body *ast.BlockStmt) {
	if out, ok := w.eng.Walk(body.List, newState()); ok {
		w.doExit(out, nil)
	}
}

// line is shorthand for the source line of a position.
func (w *walker) line(pos token.Pos) int { return w.pass.Fset.Position(pos).Line }

func (w *walker) funcName(fn *types.Func) string {
	return callutil.FuncName(fn, types.RelativeTo(w.pass.Pkg))
}

// flag emits one deduplicated diagnostic unless the resource is waived
// in this function, in which case the waiver is recorded as needed.
func (w *walker) flag(resource string, pos token.Pos, format string, args ...interface{}) {
	if w.waived[resource] {
		w.waiverHit[resource] = true
		return
	}
	w.report(pos, format, args...)
}

// report emits one diagnostic, once per position and message.
func (w *walker) report(pos token.Pos, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d\x00%s", pos, msg)
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.pass.Reportf(pos, "%s", msg)
}

// branch splits the state on a condition and notes the side taken on
// each path's trail: both sides of an if, the matching side of a switch
// case, nothing for a loop.
func (w *walker) branch(at ast.Node, cond ast.Expr, st *state) (then, els *state) {
	w.checkUses(st, cond)
	then, els = w.splitCond(cond, st)
	if _, loop := at.(*ast.ForStmt); loop {
		// The condition runs again before every lap, so what it
		// releases is released on the body side too.
		w.applyNested(then, cond, nil)
		return then, els
	}
	text := types.ExprString(cond)
	then.note(text)
	if _, isIf := at.(*ast.IfStmt); isIf {
		els.note("!(" + text + ")")
	}
	return then, els
}

// balance applies one simple statement's resource effects to the
// tokens.
func (w *walker) balance(s ast.Stmt, st *state) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		var topCall *ast.CallExpr
		if len(s.Rhs) == 1 {
			topCall, _ = ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		}
		for _, r := range s.Rhs {
			w.applyNested(st, r, topCall)
		}
		w.escapeStores(st, s.Lhs, s.Rhs)
		w.propagateAliases(st, s.Lhs, s.Rhs)
		for _, l := range s.Lhs {
			if key := callutil.Canon(l); key != "" {
				for _, t := range st.toks {
					if t.live() && t.key == key {
						t.key = key + "#stale"
					}
				}
			}
		}
		if topCall != nil {
			w.applyCall(st, topCall, s.Lhs)
		}

	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			var topCall *ast.CallExpr
			if len(vs.Values) == 1 {
				topCall, _ = ast.Unparen(vs.Values[0]).(*ast.CallExpr)
			}
			for _, v := range vs.Values {
				w.applyNested(st, v, topCall)
			}
			if topCall != nil {
				w.applyCall(st, topCall, specLHS(vs))
			}
		}

	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			w.applyNested(st, call, call)
			w.applyCall(st, call, nil)
			return
		}
		w.applyNested(st, s.X, nil)

	case *ast.DeferStmt:
		for _, a := range s.Call.Args {
			w.applyNested(st, a, nil)
		}
		st.defers = append(st.defers, deferEntry{pos: s.Pos(), call: s.Call})

	case *ast.GoStmt:
		// Ownership of anything the goroutine can reach moves with it.
		w.dischargeMentioned(st, s.Call, s.Pos())

	case *ast.SendStmt:
		w.applyNested(st, s.Value, nil)
		w.dischargeMentioned(st, s.Value, s.Pos())
	}
}

// iterEndAt flags tokens acquired inside the current loop iteration
// that are still provably live when the iteration ends: the next
// iteration re-acquires, so each lap leaks one unit. Tokens held by a
// variable declared before the loop are exempt — the next lap still
// sees the holder (the retry-same-buffer emit pattern), so holding one
// across laps is ordinary flow control, not a leak.
func (w *walker) iterEndAt(st *state, pos token.Pos, depth int, loopPos token.Pos) {
	dk := deferredKeys(st)
	for _, t := range st.toks {
		if !t.firm() || t.depth < depth || t.guard != nil {
			continue
		}
		if t.holderPos.IsValid() && t.holderPos < loopPos {
			continue // holder outlives the loop; exits still checked
		}
		if dk[baseKey(t.key)] {
			continue // a registered defer cleans it up at function exit
		}
		w.flag(t.resource, pos, "resource %s acquired via %s at line %d is still held at the end of the loop iteration; it leaks once per lap%s",
			t.resource, t.via, w.line(t.pos), st.path())
	}
}

// deferredKeys collects the base keys a registered defer might
// release, to keep iteration-end checks from second-guessing them.
func deferredKeys(st *state) map[string]bool {
	out := make(map[string]bool)
	for _, d := range st.defers {
		call := d.call
		if lit, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); isLit {
			for name := range identNames(lit.Body) {
				out[name] = true
			}
			continue
		}
		for _, k := range candidateKeys(call) {
			out[baseKey(k)] = true
		}
	}
	return out
}

func baseKey(key string) string {
	if i := strings.IndexByte(key, '.'); i >= 0 {
		return key[:i]
	}
	return key
}

// identNames collects every identifier mentioned under a node,
// including inside closures (captures carry ownership).
func identNames(n ast.Node) map[string]bool {
	names := make(map[string]bool)
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			names[id.Name] = true
		}
		return true
	})
	return names
}

// dischargeMentioned transfers every live token whose holder is
// reachable from the expression (go statement, channel send): another
// owner can now release it, so this function's obligation ends.
func (w *walker) dischargeMentioned(st *state, n ast.Node, pos token.Pos) {
	names := identNames(n)
	for _, t := range st.toks {
		if t.live() && t.key != "" && anyBaseIn(names, t) {
			t.status = stReleased
			t.relPos = pos
			t.relVia = "handoff"
		}
	}
}

// anyBaseIn reports whether any of the token's holder base names is in
// the mentioned-identifier set.
func anyBaseIn(names map[string]bool, t *tok) bool {
	for _, b := range holderBases(t) {
		if names[b] {
			return true
		}
	}
	return false
}

// propagateAliases records holder flow through local wrappers: when an
// assigned RHS mentions a live token's holder (`m := wrap(d)`),
// the LHS becomes another name the unit answers to, so a later
// `Release(m)` still matches the token acquired into `d`.
func (w *walker) propagateAliases(st *state, lhs, rhs []ast.Expr) {
	if len(lhs) != len(rhs) {
		return
	}
	for i, r := range rhs {
		key := callutil.Canon(lhs[i])
		if key == "" {
			continue
		}
		names := identNames(r)
		for _, t := range st.toks {
			if !t.live() || t.key == "" || t.key == key {
				continue
			}
			if names[strings.TrimSuffix(baseKey(t.key), "#stale")] && !containsKey(t.aliases, key) {
				t.aliases = append(t.aliases, key)
			}
		}
	}
}

// escapeStores discharges tokens stored into memory that outlives the
// call frame: a field of the receiver or a parameter, or a package
// variable. Storing into a local struct keeps the obligation here.
func (w *walker) escapeStores(st *state, lhs, rhs []ast.Expr) {
	var names map[string]bool
	for _, l := range lhs {
		if !w.lhsEscapes(l) {
			continue
		}
		if names == nil {
			names = make(map[string]bool)
			for _, r := range rhs {
				for n := range identNames(r) {
					names[n] = true
				}
			}
		}
		for _, t := range st.toks {
			if t.live() && t.key != "" && anyBaseIn(names, t) {
				t.status = stReleased
				t.relPos = l.Pos()
				t.relVia = "store"
			}
		}
	}
}

// lhsEscapes reports whether assigning through this LHS stores outside
// the current frame.
func (w *walker) lhsEscapes(l ast.Expr) bool {
	switch ast.Unparen(l).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return false
	}
	key := callutil.Canon(l)
	if key == "" {
		return true // unrecognized store shape: assume it escapes
	}
	if w.isLit {
		return true // closures capture freely; be lenient
	}
	obj := w.pass.TypesInfo.Uses[baseIdent(l)]
	if obj == nil {
		return true
	}
	if w.nonLocal[obj] {
		return true
	}
	return obj.Parent() == w.pass.Pkg.Scope()
}

// effects resolves a call's declared pair effects on the resources
// this function is answerable for (a resource it is itself declared to
// release or transfer is its caller's to balance).
func (w *walker) effects(call *ast.CallExpr) (*types.Func, []directive.PairEffect) {
	fn := callutil.StaticCallee(w.pass.TypesInfo, call)
	if fn == nil {
		return nil, nil
	}
	var out []directive.PairEffect
	for _, e := range lookup(w.pass, fn) {
		if !w.skip[e.Resource] {
			out = append(out, e)
		}
	}
	return fn, out
}

// consume applies the release and transfer effects of one call as
// settled facts: a nested call's result is not inspected, and a
// deferred call runs regardless. Acquires are not tracked here — a
// nested acquire hands its result to the surrounding expression.
func (w *walker) consume(st *state, call *ast.CallExpr) {
	fn, effs := w.effects(call)
	for _, e := range effs {
		switch e.Kind {
		case directive.PairRelease:
			w.releaseAt(st, e.Resource, candidateKeys(call), call.Pos(), fn)
		case directive.PairTransfer:
			for _, t := range transferTargets(st, e.Resource, call) {
				w.discharge(t, call.Pos(), fn)
			}
		}
	}
}

// applyNested consumes through every call nested in an expression
// (excluding skipTop, which the caller handles with its assignment
// context), function literals aside: those are analyzed separately.
func (w *walker) applyNested(st *state, e ast.Expr, skipTop *ast.CallExpr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && call != skipTop {
			w.consume(st, call)
		}
		return true
	})
}

// applyCall applies every declared effect of a statement-level call,
// with the assignment left-hand side providing the token key and the
// gating variable for conditional effects.
func (w *walker) applyCall(st *state, call *ast.CallExpr, lhs []ast.Expr) {
	fn, effs := w.effects(call)
	for _, e := range effs {
		switch e.Kind {
		case directive.PairAcquire:
			w.acquire(st, call, fn, e, lhs)
		case directive.PairRelease:
			w.releaseAt(st, e.Resource, candidateKeys(call), call.Pos(), fn)
		case directive.PairTransfer:
			w.transfer(st, call, fn, e, lhs)
		}
	}
}

// newTok creates a live token for an acquire call.
func (w *walker) newTok(st *state, call *ast.CallExpr, fn *types.Func, e directive.PairEffect, lhs []ast.Expr) *tok {
	key, holder := keyFromLHS(w.pass.TypesInfo, lhs)
	if key == "" {
		key, holder = keyFromAddrArg(w.pass.TypesInfo, call)
	}
	if key == "" {
		key = recvCanon(call)
	}
	t := &tok{pos: call.Pos(), resource: e.Resource, key: key, via: w.funcName(fn), depth: w.eng.Depth(), holderPos: holder}
	st.toks = append(st.toks, t)
	return t
}

func (w *walker) acquire(st *state, call *ast.CallExpr, fn *types.Func, e directive.PairEffect, lhs []ast.Expr) {
	t := w.newTok(st, call, fn, e, lhs)
	switch e.Cond {
	case directive.CondNilErr:
		if obj := callutil.ErrorLHS(w.pass.TypesInfo, lhs); obj != nil {
			t.pendAcq = &pending{obj: obj, cond: e.Cond, pos: call.Pos(), via: t.via}
		}
		// Error discarded with _: the caller asserts success; the
		// token is firm and must still be balanced.
	case directive.CondTrue:
		if obj := boolObjLHS(w.pass.TypesInfo, lhs); obj != nil {
			t.pendAcq = &pending{obj: obj, cond: e.Cond, pos: call.Pos(), via: t.via}
		} else {
			st.drop(t)
			w.flag(e.Resource, call.Pos(), "result of conditional acquire %s (resource %s) is ignored; whether a unit was obtained cannot be proven", t.via, e.Resource)
		}
	}
}

func (w *walker) transfer(st *state, call *ast.CallExpr, fn *types.Func, e directive.PairEffect, lhs []ast.Expr) {
	live := transferTargets(st, e.Resource, call)
	if len(live) == 0 {
		return // consuming a unit this function never tracked is fine
	}
	p := w.pendingOn(e.Cond, lhs, call.Pos(), w.funcName(fn))
	for _, t := range live {
		if p == nil {
			// Unconditional, or the result is discarded: treat as done.
			w.discharge(t, call.Pos(), fn)
		} else {
			t.pendXfer = p
		}
	}
}

// pendingOn ties a conditional effect at pos to the variable the
// statement binds its result to; nil when the effect is unconditional or
// its result is discarded, so it happened as far as the caller can tell.
func (w *walker) pendingOn(cond directive.PairCond, lhs []ast.Expr, pos token.Pos, via string) *pending {
	var obj types.Object
	switch cond {
	case directive.CondNilErr:
		obj = callutil.ErrorLHS(w.pass.TypesInfo, lhs)
	case directive.CondTrue:
		obj = boolObjLHS(w.pass.TypesInfo, lhs)
	}
	if obj == nil {
		return nil
	}
	return &pending{obj: obj, cond: cond, pos: pos, via: via}
}

// transferTargets narrows a transfer's effect to the units the call can
// actually see: when any live token's holder appears as the receiver or
// an argument of the call, only those tokens move; otherwise (synthetic
// keys, holder passed through a struct) every live unit is a candidate.
func transferTargets(st *state, resource string, call *ast.CallExpr) []*tok {
	live := st.liveOf(resource)
	if len(live) <= 1 {
		return live
	}
	keys := candidateKeys(call)
	var matched []*tok
	for _, t := range live {
		if tokMatchesKeys(t, keys) {
			matched = append(matched, t)
		}
	}
	if len(matched) > 0 {
		return matched
	}
	return live
}

func (w *walker) discharge(t *tok, pos token.Pos, fn *types.Func) {
	t.status = stReleased
	t.relPos = pos
	if fn != nil {
		t.relVia = w.funcName(fn)
	}
	t.pendAcq = nil
	t.pendXfer = nil
}

// releaseAt resolves one release effect against the path state:
// exact-key match first, then the sole live unit of the resource, then
// the double-release and failed-conditional-acquire findings; a
// release with no tracked unit and no failed acquire acts on a
// caller-owned unit and is fine.
func (w *walker) releaseAt(st *state, resource string, keys []string, pos token.Pos, fn *types.Func) {
	live := st.liveOf(resource)
	for _, t := range live {
		if tokMatchesKeys(t, keys) {
			w.discharge(t, pos, fn)
			return
		}
	}
	for _, t := range st.toks {
		if t.resource == resource && t.status == stReleased && !t.maybe && tokMatchesKeys(t, keys) {
			w.doubled[pos] = true
			w.flag(resource, pos, "resource %s already %s at line %d is released again via %s (double release)",
				resource, releasedVerb(t), w.line(t.relPos), w.funcName(fn))
			return
		}
	}
	if len(live) > 0 && !keyEvidenceAgainst(keys, live[0]) {
		w.discharge(live[0], pos, fn)
		return
	}
	if acqPos, ok := st.dropped[resource]; ok {
		w.flag(resource, pos, "release of resource %s via %s on a path where the conditional acquire at line %d did not succeed%s",
			resource, w.funcName(fn), w.line(acqPos), st.path())
	}
}

func releasedVerb(t *tok) string {
	if t.relVia == "handoff" || t.relVia == "store" {
		return "handed off"
	}
	return "released via " + t.relVia
}

// tokMatchesKeys reports whether any candidate key names the token's
// holder or one of its aliases exactly.
func tokMatchesKeys(t *tok, keys []string) bool {
	if t.key != "" && containsKey(keys, t.key) {
		return true
	}
	for _, a := range t.aliases {
		if containsKey(keys, a) {
			return true
		}
	}
	return false
}

// holderBases returns the base identifiers the token's unit is known
// by: its key (stale marker stripped) and every alias.
func holderBases(t *tok) []string {
	out := []string{strings.TrimSuffix(baseKey(t.key), "#stale")}
	for _, a := range t.aliases {
		out = append(out, baseKey(a))
	}
	return out
}

// keyEvidenceAgainst reports whether a release call's candidate keys
// positively name holders other than the token's: `mm.Release(req.Slot)`
// should not discharge a sole live unit held by `echo`. No keys, or a
// synthetic token key, is no evidence either way.
func keyEvidenceAgainst(keys []string, t *tok) bool {
	if t.key == "" || len(keys) == 0 {
		return false
	}
	bases := holderBases(t)
	for _, k := range keys {
		kb := baseKey(k)
		for _, b := range bases {
			if kb == b {
				return false
			}
		}
	}
	return true
}

func containsKey(keys []string, key string) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}

// candidateKeys renders the receiver and arguments of a call as
// tracking keys a release may be matched against.
func candidateKeys(call *ast.CallExpr) []string {
	var keys []string
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if k := callutil.Canon(sel.X); k != "" {
			keys = append(keys, k)
		}
	}
	for _, a := range call.Args {
		if k := callutil.Canon(a); k != "" {
			keys = append(keys, k)
		}
	}
	return keys
}

// keyFromAddrArg picks the holder of an acquirer that fills a struct its
// caller owns (`h.TryConsume(&m.d)`): the first argument passed by
// address, with the declaration position of the variable it lives in.
func keyFromAddrArg(info *types.Info, call *ast.CallExpr) (string, token.Pos) {
	for _, a := range call.Args {
		u, ok := ast.Unparen(a).(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			continue
		}
		if key := callutil.Canon(u.X); key != "" {
			if o := info.Uses[baseIdent(u.X)]; o != nil {
				return key, o.Pos()
			}
			return key, token.NoPos
		}
	}
	return "", token.NoPos
}

// baseIdent returns the identifier an expression callutil.Canon renders
// starts from (`m` of `&m.d`); the caller has checked that Canon does.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			id, _ := e.(*ast.Ident)
			return id
		}
	}
}

func recvCanon(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return callutil.Canon(sel.X)
	}
	return ""
}

func isBoolType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}

func boolObjLHS(info *types.Info, lhs []ast.Expr) types.Object {
	for _, e := range lhs {
		if o := callutil.LHSObj(info, e); o != nil && o.Type() != nil && isBoolType(o.Type()) {
			return o
		}
	}
	return nil
}

// keyFromLHS picks the assigned variable that holds the acquired
// resource — the first name that is not the error/bool gate — and
// reports the declaration position of that holder, so loop checks can
// tell a holder declared outside the loop from a per-lap one.
func keyFromLHS(info *types.Info, lhs []ast.Expr) (string, token.Pos) {
	for _, e := range lhs {
		o := callutil.LHSObj(info, e)
		if o == nil || o.Type() == nil || callutil.IsError(o.Type()) || isBoolType(o.Type()) {
			continue
		}
		if key := callutil.Canon(e); key != "" {
			return key, o.Pos()
		}
	}
	return "", token.NoPos
}
