// Package concurrencycheck holds the insanevet rules that prove the
// runtime's goroutine lifecycles at compile time.
//
// INSANE's runtime is a pool of polling threads plus per-technology
// datapath goroutines (§5.3); the microkernel framing only works if
// every one of them has a provable owner and shutdown path. The
// goroutinecheck rule turns that into a whole-program property, built
// on the same analysis.Fact mechanism as hotpathcheck: every package
// pass summarizes each function (infinite loops and the stop signals
// that bound them, calls to run-forever library functions, shutdown
// signals the function performs, outgoing module-internal calls) into
// a GoSummary fact; `go` statements are then judged against the fact
// graph:
//
//   - a goroutine whose call closure contains no infinite loop and no
//     run-forever call is provably bounded and needs nothing;
//
//   - a goroutine whose main loop waits on a recognized stop signal —
//     a `case <-x.stop:` select arm, a `ctx.Done()` receive, an atomic
//     flag `Load` guarding a return, a range over a channel, or a call
//     like (*net/http.Server).Serve that ends on server shutdown —
//     must carry an ownership annotation on the `go` statement:
//
//     //insane:goroutine owner=<type> stop=<method>
//
//     naming the struct that owns the goroutine and the shutdown
//     method that joins it. The analyzer verifies the type exists in
//     the package, the method exists on it, and the method's
//     transitive call closure actually signals the observed stop
//     mechanism (closes the channel, cancels the context, stores the
//     flag, or shuts the server down);
//
//   - an infinite loop with no exit at all, or whose exits are not
//     guarded by a stop signal, is reported outright — no annotation
//     can vouch for a loop that cannot be stopped. Only a reasoned
//     `//lint:ignore insanevet/goroutinecheck` waives it.
//
// Deeper in the call closure the rule is deliberately lenient: an
// infinite loop with recognized exits reached through a call (a
// bounded wait like core.(*SinkHandle).Consume) contributes its stop
// mechanisms to the match but is not itself flagged — by convention a
// goroutine's main loop lives in the function the `go` statement
// spawns. Loops with no exit and run-forever calls are flagged
// wherever they hide, with the full call chain like hotpathcheck.
//
// The package also provides the syncmisuse rule (see syncmisuse.go):
// intra-function double close, send after close, `wg.Add` inside the
// spawned goroutine, and WaitGroup paths that can miss Done.
package concurrencycheck

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/directive"
)

// Mech identifies one stop signal: something a goroutine loop waits on,
// or something a shutdown method performs. Matching the two proves the
// annotated stop method really ends the goroutine.
type Mech struct {
	// Kind is "chan" (closed channel), "flag" (atomic stop flag),
	// "context" (context cancellation) or "server" (serve-until-shutdown
	// library object).
	Kind string
	// Type is the fully-qualified owner type of the channel/flag field
	// (or the library type for "server"); empty when the expression
	// does not resolve to a named type's field, which makes the
	// mechanism recognizable but unmatchable.
	Type string
	// Field is the channel or flag field name.
	Field string
	// Short is the display form used in diagnostics, e.g. "poller.stop".
	Short string
}

// String renders the mechanism the way the goroutine experiences it.
func (m Mech) String() string {
	switch m.Kind {
	case "chan":
		return "<-" + m.Short
	case "flag":
		return m.Short + ".Load"
	case "context":
		return "ctx.Done()"
	case "server":
		return "shutdown of " + m.Short
	}
	return m.Short
}

// matches reports whether a stop action signals this wait mechanism.
func (m Mech) matches(stop Mech) bool {
	if m.Kind != stop.Kind {
		return false
	}
	switch m.Kind {
	case "context":
		return true
	case "server":
		return m.Type == stop.Type
	default:
		return m.Type != "" && m.Type == stop.Type && m.Field == stop.Field
	}
}

// LoopSum summarizes one loop of a function.
type LoopSum struct {
	// Infinite marks a loop with no condition bounding it: `for {}` or
	// a range over a channel.
	Infinite bool
	// HasExit reports whether any statement can leave the loop
	// (return, effective break, panic) — or, for a channel range,
	// that closing the channel ends it.
	HasExit bool
	// Mechs lists the recognized stop signals guarding the exits.
	Mechs []Mech
}

// ForeverCall is a call to a library function that runs until an
// associated shutdown (or, with an empty Mech, until process exit).
type ForeverCall struct {
	// Name is the callee, e.g. "(*net/http.Server).Serve".
	Name string
	// Mech is the shutdown that ends the call; Kind "" means nothing
	// can end it.
	Mech Mech
}

// GoSummary is the per-function fact of the goroutinecheck rule.
type GoSummary struct {
	// Loops summarizes the function's own loops (nested function
	// literals excluded — a literal only runs if called, and calls
	// through func values are dynamic anyway).
	Loops []LoopSum
	// Forever lists calls to run-until-shutdown library functions.
	Forever []ForeverCall
	// Stops lists the shutdown signals this function performs: channel
	// closes, atomic flag stores, context cancels, server shutdowns.
	Stops []Mech
	// Calls are the resolved module-internal callees.
	Calls []*types.Func
}

// AFact marks GoSummary as an analysis fact.
func (*GoSummary) AFact() {}

// goroutineName is the rule name used in diagnostics and suppression.
const goroutineName = "goroutinecheck"

// Goroutine is the goroutine-ownership rule.
var Goroutine = &analysis.Analyzer{
	Name:      goroutineName,
	Doc:       "every go statement must be provably bounded or carry a verified //insane:goroutine owner/stop annotation",
	Run:       runGoroutine,
	FactTypes: []analysis.Fact{(*GoSummary)(nil)},
}

func runGoroutine(pass *analysis.Pass) (interface{}, error) {
	// Phase 1: summarize and export every declared function, so the
	// `go` statements of this package (and of dependents) can follow
	// calls through the fact graph.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := &GoSummary{}
			if fd.Body != nil {
				sum = summarize(pass, fd.Body)
			}
			pass.ExportObjectFact(fn, sum)
		}
	}

	// Phase 2: judge every go statement, wherever it appears
	// (declared functions and function literals alike).
	gidx := directive.Scan(pass.Fset, pass.Files, directive.ParseGoroutine)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				checkGo(pass, gidx, gs)
			}
			return true
		})
	}

	// Phase 3: annotations no go statement claimed are dead weight —
	// a directive that drifted away from its statement vouches for
	// nothing and must not look like it does.
	for _, g := range gidx.Unclaimed() {
		if g.Malformed != "" {
			pass.Reportf(g.Pos, "malformed //insane:goroutine directive: %s", g.Malformed)
		} else {
			pass.Reportf(g.Pos, "//insane:goroutine annotation is not attached to a go statement")
		}
	}
	return nil, nil
}

// checkGo applies the ownership rule to one go statement.
func checkGo(pass *analysis.Pass, gidx *directive.Lines[*directive.Goroutine], gs *ast.GoStmt) {
	qual := types.RelativeTo(pass.Pkg)
	dir, annotated := gidx.At(pass.Fset.Position(gs.Pos()))
	malformedDir := false
	if annotated && dir.Malformed != "" {
		pass.Reportf(gs.Pos(), "malformed //insane:goroutine directive: %s", dir.Malformed)
		annotated, malformedDir = false, true
	}

	// Resolve what the statement spawns.
	var direct *GoSummary
	directName := "the goroutine"
	resolved := false
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		direct = summarize(pass, lit.Body)
		resolved = true
	} else if callee := callutil.StaticCallee(pass.TypesInfo, gs.Call); callee != nil {
		origin := callee.Origin()
		var sum GoSummary
		switch {
		case pass.ImportObjectFact(origin, &sum):
			direct = &sum
			directName = callutil.FuncName(origin, qual)
			resolved = true
		default:
			if m, ok := foreverFuncs[origin.FullName()]; ok {
				// A run-forever library function spawned directly.
				direct = &GoSummary{Forever: []ForeverCall{{Name: origin.FullName(), Mech: m}}}
			} else {
				// Other library functions are assumed to terminate.
				direct = &GoSummary{}
			}
			directName = callutil.FuncName(origin, qual)
			resolved = true
		}
	}

	if !resolved {
		// A spawn through a func value cannot be followed. An
		// annotation with an existing owner and stop method vouches
		// for it; otherwise it is reported.
		if annotated {
			for _, p := range verifyDirective(pass, dir, nil, false) {
				pass.Reportf(gs.Pos(), "//insane:goroutine: %s", p)
			}
			return
		}
		pass.Reportf(gs.Pos(), "go statement spawns a dynamic call that cannot be analyzed; spawn a named function or annotate with //insane:goroutine owner=<type> stop=<method>")
		return
	}

	// Strict rule for the spawned function itself; lenient rule for
	// everything deeper in the call closure.
	var hard []string // problems no annotation can vouch for
	var mechs []Mech  // recognized stop mechanisms observed
	needOwner := false

	for _, l := range direct.Loops {
		if !l.Infinite {
			continue
		}
		switch {
		case len(l.Mechs) > 0:
			needOwner = true
			mechs = appendMechs(mechs, l.Mechs)
		case l.HasExit:
			hard = append(hard, fmt.Sprintf("%s has an infinite loop whose exits are not guarded by a stop signal (ctx.Done, stop channel, or atomic flag)", directName))
		default:
			hard = append(hard, fmt.Sprintf("%s has an infinite loop with no exit", directName))
		}
	}
	for _, fc := range direct.Forever {
		if fc.Mech.Kind == "" {
			hard = append(hard, fmt.Sprintf("%s calls %s, which can never be stopped", directName, fc.Name))
			continue
		}
		needOwner = true
		mechs = appendMechs(mechs, []Mech{fc.Mech})
	}

	search := callutil.NewSearch(direct.Calls...)
	search.BFS(func(fn *types.Func) []*types.Func {
		var sum GoSummary
		if !pass.ImportObjectFact(fn, &sum) {
			return nil
		}
		chain := func() string { return directName + " -> " + callutil.ChainText(search.Chain(fn), qual) }
		for _, l := range sum.Loops {
			if !l.Infinite {
				continue
			}
			if len(l.Mechs) > 0 {
				// A stoppable loop reached through a call is a bounded
				// wait (the blocking Consume); it contributes its stop
				// mechanisms to the ownership match but is not flagged.
				mechs = appendMechs(mechs, l.Mechs)
				continue
			}
			if !l.HasExit {
				hard = append(hard, fmt.Sprintf("%s reaches %s, which loops forever with no exit: %s", directName, callutil.FuncName(fn, qual), chain()))
			}
		}
		for _, fc := range sum.Forever {
			if fc.Mech.Kind == "" {
				hard = append(hard, fmt.Sprintf("%s reaches a call to %s, which can never be stopped: %s", directName, fc.Name, chain()))
				continue
			}
			needOwner = true
			mechs = appendMechs(mechs, []Mech{fc.Mech})
		}
		return sum.Calls
	})

	if annotated {
		for _, p := range verifyDirective(pass, dir, mechs, needOwner) {
			pass.Reportf(gs.Pos(), "//insane:goroutine: %s", p)
		}
	} else if needOwner && !malformedDir {
		// A malformed directive was already reported; fixing it is the
		// remedy, not adding a second one.
		pass.Reportf(gs.Pos(), "unannotated goroutine %s runs until %s; annotate the go statement with //insane:goroutine owner=<type> stop=<method> naming who signals it", directName, mechList(mechs))
	}
	for _, h := range hard {
		pass.Reportf(gs.Pos(), "%s", h)
	}
}

// verifyDirective checks a well-formed annotation: the owner type and
// stop method must exist, and — when the goroutine runs until stopped —
// the stop method's call closure must perform one of the observed stop
// mechanisms. Returns the problems found.
func verifyDirective(pass *analysis.Pass, dir *directive.Goroutine, mechs []Mech, needOwner bool) []string {
	obj := pass.Pkg.Scope().Lookup(dir.Owner)
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return []string{fmt.Sprintf("owner type %s not found in package %s", dir.Owner, pass.Pkg.Name())}
	}
	m := lookupMethod(tn.Type(), dir.Stop, pass.Pkg)
	if m == nil {
		return []string{fmt.Sprintf("owner type %s has no method %s", dir.Owner, dir.Stop)}
	}
	if !needOwner || len(mechs) == 0 {
		return nil
	}
	for _, stop := range stopActions(pass, m) {
		for _, mech := range mechs {
			if mech.matches(stop) {
				return nil
			}
		}
	}
	return []string{fmt.Sprintf("stop method (*%s).%s does not signal the goroutine's stop mechanism (%s); it must close the channel, cancel the context, store the flag, or shut down the server the goroutine waits on", dir.Owner, dir.Stop, mechList(mechs))}
}

// lookupMethod finds a method on t or *t.
func lookupMethod(t types.Type, name string, pkg *types.Package) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, pkg, name)
	fn, _ := obj.(*types.Func)
	return fn
}

// stopActions collects the stop signals performed by fn and its
// module-internal call closure, via the fact graph.
func stopActions(pass *analysis.Pass, fn *types.Func) []Mech {
	var out []Mech
	callutil.NewSearch(fn.Origin()).BFS(func(f *types.Func) []*types.Func {
		var sum GoSummary
		if !pass.ImportObjectFact(f, &sum) {
			return nil
		}
		out = append(out, sum.Stops...)
		return sum.Calls
	})
	return out
}

// appendMechs appends the new mechanisms, deduplicated by identity.
func appendMechs(dst []Mech, add []Mech) []Mech {
	for _, m := range add {
		dup := false
		for _, d := range dst {
			if d.Kind == m.Kind && d.Type == m.Type && d.Field == m.Field {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, m)
		}
	}
	return dst
}

// mechList renders the observed mechanisms for a diagnostic.
func mechList(mechs []Mech) string {
	if len(mechs) == 0 {
		return "an unknown stop signal"
	}
	parts := make([]string, len(mechs))
	for i, m := range mechs {
		parts[i] = m.String()
	}
	return strings.Join(parts, " / ")
}
