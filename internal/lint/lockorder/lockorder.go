// Package lockorder implements the insanevet rule guarding the
// runtime's locking discipline.
//
// internal/core orders its techState locks strictly mu→schedMu: the
// endpoint mutex (mu) is never acquired while the scheduler mutex
// (schedMu) is held, because pollers take schedMu on every iteration
// and a cross-technology send takes mu — the inverse nesting deadlocks
// two pollers against each other (§5.3's multi-threaded datapath).
//
// Within one function body the analyzer flags:
//
//   - acquiring a mutex field named "mu" while a "schedMu" of the same
//     receiver (or the same struct type) is held — the inversion of the
//     established order;
//   - any Lock/RLock of a sync.Mutex/sync.RWMutex field with no
//     matching Unlock/RUnlock (direct or deferred) anywhere in the same
//     function — the runtime never hands locked state across function
//     boundaries;
//   - an explicit return while a lock is still held and its Unlock is
//     not deferred — the early-exit path leaks the lock even though a
//     later Unlock satisfies the previous rule.
//
// Beyond the per-function rules the analyzer is whole-program: each
// function exports a LockSummary fact recording which locks it acquires
// while holding which others, plus its module-internal call edges with
// the lock set held at each call site. Over the dependency closure
// those summaries form a global acquired-after graph whose cycles are
// potential deadlocks; each cycle is reported once with the full
// acquisition chain, including the call path when an edge is closed
// transitively in a callee (mirroring hotpathcheck's chain rendering).
//
// Lock identity in the global graph is by declaring type and field
// ("core.techState.schedMu"), like lockdep classes: distinct instances
// of one type share an identity, so a cycle means "some pair of
// instances can deadlock". Same-class nesting (a.mu held while taking
// b.mu) is therefore excluded from the graph — it is not a cycle
// between classes. Function literals keep the per-function rules but
// export no summary: a goroutine body's acquisition order is analyzed
// where its named callees are defined.
//
// The per-function analysis runs on the shared flow engine
// (internal/lint/flow) with a may-hold join: lock state forks at
// branches, and every arm that can fall out of a construct (or break
// out of a loop) adds the locks it still holds to the fall-through
// state — taking the arm is always possible, so any order established
// inside it is established, period. A deferred Unlock keeps its lock
// held until the function returns, which is exactly how deadlocks
// happen.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/flow"
)

// Analyzer is the lockorder rule.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "flag mu/schedMu inversions, lock leaks, and whole-program lock-order cycles",
	Run:       run,
	FactTypes: []analysis.Fact{(*LockSummary)(nil)},
}

// LockRef identifies one lock class in the global graph.
type LockRef struct {
	// ID is the fully-qualified declaring type plus field, e.g.
	// "github.com/insane-mw/insane/internal/core.techState.schedMu".
	ID string
	// Disp is the short display form, e.g. "core.techState.schedMu".
	Disp string
}

// Acquire records one Lock/RLock and the lock classes held at it.
type Acquire struct {
	Lock LockRef
	Held []LockRef
	Pos  token.Pos
}

// LockCall records one module-internal call and the lock classes held
// at the call site, so the global graph can close edges through the
// callee's own acquisitions.
type LockCall struct {
	Callee *types.Func
	Held   []LockRef
	Pos    token.Pos
}

// LockSummary is the per-function fact exported for the global phase.
type LockSummary struct {
	Acquires []Acquire
	Calls    []LockCall
}

// AFact marks LockSummary as an analysis fact.
func (*LockSummary) AFact() {}

// lockEvent is one Lock/Unlock-family call on a mutex-typed selector.
type lockEvent struct {
	call  *ast.CallExpr
	verb  string // Lock, RLock, Unlock, RUnlock
	key   string // canonical mutex expression, e.g. "st.schedMu"
	field string // mutex field name, e.g. "schedMu"
	base  string // canonical owner expression, e.g. "st"
	typ   types.Type
	ref   LockRef // global identity, zero when the owner type is unnamed
	// deferredUnlock marks a lock whose Unlock is deferred: held until
	// return, but not leaked by an early return.
	deferredUnlock bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	// cycleSeen dedupes lock-cycle reports within this package by the
	// set of lock classes involved. The mu→schedMu heuristic (rule 1)
	// seeds it, so a cycle it already explains is not reported twice.
	cycleSeen := make(map[string]bool)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				s := &scanner{pass: pass, cycleSeen: cycleSeen}
				if pass.ExportObjectFact != nil {
					s.sum = &LockSummary{}
				}
				s.checkFunc(fn.Body)
				if s.sum != nil && (len(s.sum.Acquires) > 0 || len(s.sum.Calls) > 0) {
					if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
						pass.ExportObjectFact(obj, s.sum)
					}
				}
			case *ast.FuncLit:
				// Literals keep the per-function rules but export no
				// summary (see the package doc).
				s := &scanner{pass: pass, cycleSeen: cycleSeen}
				s.checkFunc(fn.Body)
			}
			return true
		})
	}

	if pass.AllObjectFacts != nil {
		checkCycles(pass, cycleSeen)
	}
	return nil, nil
}

// scanner analyzes one function body.
type scanner struct {
	pass      *analysis.Pass
	sum       *LockSummary // nil: intra-function rules only
	cycleSeen map[string]bool
}

// held tracks the mutexes currently locked during the scan.
type held map[string]lockEvent

func (h held) Clone() held {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// Join is the may-hold union: locks an arm still holds where it rejoins
// (a Lock with a deferred or missing Unlock) stay held in the
// fall-through.
func (h held) Join(outs []held) held {
	for _, out := range outs {
		for k, ev := range out {
			if _, ok := h[k]; !ok {
				h[k] = ev
			}
		}
	}
	return h
}

// refs returns the distinct lock classes held, sorted by ID.
func (h held) refs() []LockRef {
	var out []LockRef
	seen := make(map[string]bool)
	for _, ev := range h {
		if ev.ref.ID != "" && !seen[ev.ref.ID] {
			seen[ev.ref.ID] = true
			out = append(out, ev.ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s *scanner) checkFunc(body *ast.BlockStmt) {
	// Rule 2 first: every Lock needs a matching Unlock somewhere in the
	// function (same mutex expression, same read/write flavor).
	events := collect(s.pass, body)
	unlocked := make(map[string]bool)
	for _, ev := range events {
		if ev.verb == "Unlock" || ev.verb == "RUnlock" {
			unlocked[ev.key+"/"+ev.verb] = true
		}
	}
	for _, ev := range events {
		var want string
		switch ev.verb {
		case "Lock":
			want = "Unlock"
		case "RLock":
			want = "RUnlock"
		default:
			continue
		}
		if !unlocked[ev.key+"/"+want] {
			s.pass.Reportf(ev.call.Pos(), "%s.%s() has no matching %s in this function (runtime locks never escape their function)", ev.key, ev.verb, want)
		}
	}

	// Rules 1 and 3 plus summary collection: path-sensitive walk.
	flow.New(flow.Hooks[held]{
		NoReturn: func(call *ast.CallExpr) bool { return callutil.NoReturn(s.pass.TypesInfo, call) },
		Stmt:     s.scanStmt,
		Eval:     func(_ ast.Node, e ast.Expr, h held) { s.applyExpr(e, h, false) },
		Exit:     s.scanReturn,
		// What a lap leaves locked is still locked after the loop.
		IterEnd: func(ast.Stmt, int, token.Pos, held) bool { return true },
	}).Walk(body.List, make(held))
}

// collect gathers the lock events of a function body in source order,
// without descending into nested function literals.
func collect(pass *analysis.Pass, body *ast.BlockStmt) []lockEvent {
	var out []lockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if ev, ok := mutexCall(pass, call); ok {
				out = append(out, ev)
			}
		}
		return true
	})
	return out
}

// mutexCall recognizes a Lock/Unlock-family call on a mutex that is a
// struct field with a trackable owner chain. The rule is deliberately
// narrower than the shared recogniser: TryLock never blocks, so it
// orders nothing, and a local or package-level mutex has no owner to
// compare or class to put in the global graph.
func mutexCall(pass *analysis.Pass, call *ast.CallExpr) (lockEvent, bool) {
	op, ok := callutil.MutexCall(pass.TypesInfo, call)
	if !ok || op.Field == "" || strings.HasPrefix(op.Verb, "Try") {
		return lockEvent{}, false
	}
	key := callutil.Canon(op.X)
	if key == "" {
		return lockEvent{}, false
	}
	ev := lockEvent{call: call, verb: op.Verb, key: key, field: op.Field, base: callutil.Canon(op.Base), typ: op.Owner}
	ev.ref.ID, ev.ref.Disp = op.Class()
	return ev, true
}

// scanStmt applies one simple statement to the held set.
func (s *scanner) scanStmt(st ast.Stmt, h held) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		s.applyExpr(st.X, h, false)
	case *ast.DeferStmt:
		// A deferred Unlock releases only at return: the mutex stays
		// held for everything that follows in this function.
		s.applyExpr(st.Call, h, true)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.applyExpr(e, h, false)
		}
	}
	// A go statement orders nothing: the spawned goroutine runs
	// concurrently (its named callees are summarized on their own).
}

// scanReturn is rule 3: an explicit return leaks every held lock whose
// Unlock is not deferred.
func (s *scanner) scanReturn(ret *ast.ReturnStmt, h held) {
	for _, e := range ret.Results {
		s.applyExpr(e, h, false)
	}
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !h[k].deferredUnlock {
			s.pass.Reportf(ret.Pos(), "return while still holding %s (the Unlock below is skipped on this path; defer it at the Lock)", k)
		}
	}
}

// applyExpr updates the held set with every mutex call in the
// expression, reports order inversions as they happen, and records
// acquisitions and module-internal call edges into the summary.
func (s *scanner) applyExpr(e ast.Expr, h held, deferred bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		ev, ok := mutexCall(s.pass, call)
		if !ok {
			s.recordCall(call, h)
			return true
		}
		switch ev.verb {
		case "Lock", "RLock":
			if ev.field == "mu" {
				for _, prior := range h {
					if prior.field == "schedMu" && sameOwner(prior, ev) {
						s.pass.Reportf(call.Pos(), "%s.%s() while holding %s: lock order is mu→schedMu (inversion deadlocks the pollers)", ev.key, ev.verb, prior.key)
						if prior.ref.ID != "" && ev.ref.ID != "" {
							s.cycleSeen[cycleKey([]string{prior.ref.ID, ev.ref.ID})] = true
						}
					}
				}
			}
			if s.sum != nil && ev.ref.ID != "" {
				s.sum.Acquires = append(s.sum.Acquires, Acquire{
					Lock: ev.ref,
					Held: h.refs(),
					Pos:  call.Pos(),
				})
			}
			h[ev.key] = ev
		case "Unlock", "RUnlock":
			if deferred {
				if prior, ok := h[ev.key]; ok {
					prior.deferredUnlock = true
					h[ev.key] = prior
				}
			} else {
				delete(h, ev.key)
			}
		}
		return true
	})
}

// recordCall adds a module-internal static call edge to the summary.
func (s *scanner) recordCall(call *ast.CallExpr, h held) {
	if s.sum == nil {
		return
	}
	callee := callutil.StaticCallee(s.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	origin := callee.Origin()
	if origin.Pkg() == nil {
		return
	}
	var sum LockSummary
	if origin.Pkg() != s.pass.Pkg && !s.pass.ImportObjectFact(origin, &sum) {
		return // outside the analyzed module closure
	}
	s.sum.Calls = append(s.sum.Calls, LockCall{
		Callee: origin,
		Held:   h.refs(),
		Pos:    call.Pos(),
	})
}

// sameOwner reports whether two mutex fields belong to the same
// receiver expression or the same struct type.
func sameOwner(a, b lockEvent) bool {
	if a.base != "" && a.base == b.base {
		return true
	}
	return a.typ != nil && b.typ != nil && types.Identical(a.typ, b.typ)
}

// cycleKey canonicalizes a set of lock IDs for deduplication.
func cycleKey(ids []string) string {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	uniq := sorted[:0]
	for i, id := range sorted {
		if i == 0 || id != sorted[i-1] {
			uniq = append(uniq, id)
		}
	}
	return strings.Join(uniq, "\x00")
}
