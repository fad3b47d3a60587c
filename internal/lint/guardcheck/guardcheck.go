// Package guardcheck proves that every access to a field of an
// //insane:shared struct uses the field's declared synchronization
// regime (DESIGN.md §14) — the static complement to the dynamic race
// detector: -race observes the executions a test happens to take,
// guardcheck proves the regime for all of them.
//
// A shared struct names one regime per field with //insane:guardedby:
//
//   - mu=<lockfield>: the field is touched only while the named mutex
//     is held — a sibling field by default, <Type>.<field> for a lock
//     living in another struct. Lock/RLock/Unlock flows are tracked
//     path-sensitively, including deferred unlocks and TryLock
//     branches; a write through an RWMutex needs the write lock, a
//     read is satisfied by either.
//   - atomic: the field is touched only through sync/atomic operations
//     — method calls on atomic.* values (including indexed elements,
//     as in shard counter arrays) or &field handed to an atomic
//     function or wrapper. Plain reads, writes and copies are
//     violations, in any package.
//   - rcu=<publisher>: an RCU-style published snapshot. Readers load it
//     anywhere; it is stored (Store/Swap/CompareAndSwap, or a plain
//     write for non-atomic publication fields) only inside the named
//     publisher function, which the mu= needs of whatever it rebuilds
//     from keep under the paired lock.
//   - confined owner=<func>: the field belongs to the goroutine running
//     the named function (a //insane:goroutine-annotated spawn target,
//     e.g. the poller loop). Accesses are legal only in functions
//     reachable from the owner through same-package static calls, and
//     never from inside a spawned function literal.
//   - immutable after=<init-func>: the field is never written once the
//     named constructor returns.
//
// Accesses on provably fresh objects — locals initialized from a
// composite literal or new() in the same function, not yet shared — are
// exempt, which is what lets constructors initialize without locks.
//
// The whole-program half follows the repo's *Locked convention: a
// function whose name ends in "Locked" asserts its callers hold the
// locks for whatever it touches. guardcheck turns each such function's
// unsatisfied accesses into Needs facts exported bottom-up through the
// dependency closure, verifies every call site (same-package or
// cross-package) holds the needed locks, and reports the ones that do
// not with the full access chain. In any other function an unguarded
// access is reported at the access itself.
//
// //insane:unguarded <reason> waives one access (its own line or the
// next); a waiver that suppresses nothing is itself a finding.
//
// The same walk proves the runtime's lock discipline (§5.3's polling
// threads), over every lock it tracks, annotated or not:
//
//   - locks never escape their function: at every exit — each return,
//     and the end a body falls off — a lock taken in that body and held
//     on some path without a deferred Unlock is a finding (Unlock
//     releases a Lock, RUnlock an RLock; a mismatched pair leaves the
//     lock held);
//   - mu before schedMu: acquiring a mutex field named mu while a
//     schedMu of the same receiver or struct type may be held inverts
//     internal/core's techState order and deadlocks two pollers;
//   - no lock cycles: each function's Summary also records which lock
//     classes it acquires while holding which others and its
//     module-internal calls with the classes held at each. Over the
//     dependency closure those summaries form a global acquired-after
//     graph; each cycle is reported once, at the edge of this package
//     that closes it, with the acquisition chain (order.go).
//
// A lock class is the declaring type plus field ("core.techState.mu"),
// like lockdep's: instances of one type share a class, so a cycle means
// some pair of instances can deadlock, and same-class nesting is no
// edge. A function literal judges its own exits. A spawned one orders
// nothing in its enclosing function's summary.
package guardcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/directive"
)

// Analyzer is the shared-state and lock rule.
var Analyzer = &analysis.Analyzer{
	Name:      "guardcheck",
	Doc:       "prove every access to an //insane:shared struct field uses its declared //insane:guardedby regime, and that locks never escape their function and are taken in a cycle-free order",
	Run:       run,
	FactTypes: []analysis.Fact{(*Regime)(nil), (*Summary)(nil)},
}

// Need is one lock a function requires its callers to hold (the
// *Locked convention): some access inside it — or inside a *Locked
// callee — touches a mu-guarded field without acquiring the lock
// locally.
type Need struct {
	// LockKey identifies the lock field: "pkgpath.Struct.field".
	LockKey string
	// LockName renders the lock for diagnostics, e.g. "mu" or
	// "ClientConn.mu".
	LockName string
	// Qualified marks a <Type>.<field> lock, satisfied by holding it on
	// any instance; an unqualified need is satisfied only on the
	// receiver the method is called on.
	Qualified bool
	// Write requires the write lock (an RWMutex read lock satisfies
	// only reads).
	Write bool
	// FieldDesc names the guarded field for diagnostics.
	FieldDesc string
	// Chain is the access path, innermost first: "fn (file:line)".
	Chain []string
}

// Summary is the per-function fact: the locks its callers must hold,
// and its half of the global acquired-after graph (order.go).
type Summary struct {
	Needs    []Need
	Acquires []Acquire
	Calls    []LockCall
}

// AFact marks Summary as an analysis fact.
func (*Summary) AFact() {}

func (n Need) key() string {
	return fmt.Sprintf("%s|%v|%s", n.LockKey, n.Write, n.FieldDesc)
}

// accessKind classifies how an expression touches a field.
type accessKind int

const (
	akRead accessKind = iota
	akWrite
	akAddr     // &field outside a call argument
	akAddrCall // &field as a call argument (handed to an atomic op or wrapper)
	akMethod   // field is the receiver of a method call
)

func (k accessKind) verb() string {
	switch k {
	case akWrite:
		return "write to"
	case akAddr, akAddrCall:
		return "address-taken access of"
	case akMethod:
		return "method call on"
	}
	return "read of"
}

// writeLike reports whether the access can mutate the field (or leak a
// mutable reference) for the mu/immutable regimes.
func (k accessKind) writeLike() bool {
	return k == akWrite || k == akAddr || k == akAddrCall
}

// heldLock is one lock held at a program point.
type heldLock struct {
	// lockKey is a field lock's class, "pkgpath.Type.field", or a plain
	// variable's "pkgpath.var.name" / "local.name".
	lockKey string
	base    string // canonical receiver expression, "" for non-field locks
	disp    string // the class for diagnostics, "core.techState.mu"; "" for a plain variable
	write   bool
	// may marks a lock held on some incoming paths but not all: the
	// order and exit rules read it, the must-hold proof does not.
	may bool
	// deferred marks a lock whose Unlock is deferred: held to the end
	// of the function, but not leaked by it.
	deferred bool
	// verb and at are the mutex call and its position: for a held
	// lock, the Lock, RLock, TryLock or TryRLock that took it.
	verb string
	at   token.Pos
	lit  int // function-literal depth of the body that took the lock
}

func (h heldLock) key() string { return h.lockKey + "|" + h.base }

// field is the lock's field or variable name.
func (h heldLock) field() string { return h.lockKey[strings.LastIndex(h.lockKey, ".")+1:] }

// name renders the lock as written: "st.mu", or "mu" for a variable.
func (h heldLock) name() string { return lockDisplay(h.base, h.field(), false) }

// lockSet is the set of locks held at a program point, keyed by
// lockKey+base.
type lockSet map[string]heldLock

func (s lockSet) Clone() lockSet {
	out := make(lockSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Join merges the out-states of a construct. A lock held in every one
// stays must-held, demoted to read mode when any held only the read
// lock and deferred only when every one defers it; a lock some
// out-state lacks is may-held.
func (lockSet) Join(sets []lockSet) lockSet {
	out := make(lockSet)
	for _, s := range sets {
		for k, v := range s {
			if o, ok := out[k]; ok {
				v.write = o.write && v.write
				v.may = o.may || v.may
				v.deferred = o.deferred && v.deferred
				v.verb, v.at = o.verb, o.at
			}
			out[k] = v
		}
	}
	for k, v := range out {
		for _, s := range sets {
			if _, ok := s[k]; !ok {
				v.may = true
				out[k] = v
				break
			}
		}
	}
	return out
}

// releasedBy returns the key of the held lock an Unlock or RUnlock
// releases: the one taken in the same mode.
func (s lockSet) releasedBy(h heldLock) (string, bool) {
	if h.verb != "Unlock" && h.verb != "RUnlock" {
		return "", false
	}
	prior, ok := s[h.key()]
	return h.key(), ok && isRead(prior.verb) == (h.verb == "RUnlock")
}

func isRead(verb string) bool { return strings.HasSuffix(verb, "RLock") }

// satisfied reports whether held must hold a lock requirement.
func satisfied(held lockSet, lockKey string, qualified bool, base string, write bool) bool {
	for _, h := range held {
		if h.may || h.lockKey != lockKey {
			continue
		}
		if !qualified && h.base != base {
			continue
		}
		if write && !h.write {
			continue
		}
		return true
	}
	return false
}

// accessRec is one recorded touch of a guarded field.
type accessRec struct {
	fn     *fnInfo
	field  *types.Var
	fact   Regime
	kind   accessKind
	method string // method name for akMethod
	pos    token.Pos
	held   lockSet
	base   string // canonical base expression
	fresh  bool   // base is a function-local fresh object
	inGo   bool   // inside a spawned function literal
}

// callRec is one recorded static call site.
type callRec struct {
	fn        *fnInfo
	callee    *types.Func
	pos       token.Pos
	held      lockSet
	recvCanon string
	recvFresh bool
	isGo      bool // a go statement's call
	inGo      bool // inside a spawned function literal
}

// fnInfo is the per-function analysis state.
type fnInfo struct {
	decl   *ast.FuncDecl
	obj    *types.Func
	name   string
	recv   string // receiver identifier, "" for functions
	locked bool   // name ends in "Locked": callers hold its needs
	needs  []Need
	nkeys  map[string]bool
	// acquires are the blocking acquisitions of lock classes outside
	// spawned literals, with the classes held at each.
	acquires []Acquire
}

func (f *fnInfo) addNeed(n Need) bool {
	if f.nkeys == nil {
		f.nkeys = make(map[string]bool)
	}
	k := n.key()
	if f.nkeys[k] {
		return false
	}
	f.nkeys[k] = true
	f.needs = append(f.needs, n)
	return true
}

// state is the per-package analysis state.
type state struct {
	pass      *analysis.Pass
	idx       *directive.Lines[*directive.Unguarded]
	fns       []*fnInfo
	byObj     map[*types.Func]*fnInfo
	accesses  []accessRec
	calls     []callRec
	funcNames map[string]bool
	goTargets map[string]bool
	reported  map[string]bool
	imported  map[*types.Func]*Summary
	// cycleSeen holds the lock cycles already reported in this
	// package, by cycleKey; the mu→schedMu rule seeds it, so a cycle
	// that rule explains is not reported twice.
	cycleSeen map[string]bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	st := &state{
		pass:      pass,
		idx:       directive.Scan(pass.Fset, pass.Files, directive.ParseUnguarded),
		byObj:     make(map[*types.Func]*fnInfo),
		funcNames: make(map[string]bool),
		goTargets: make(map[string]bool),
		reported:  make(map[string]bool),
		imported:  make(map[*types.Func]*Summary),
		cycleSeen: make(map[string]bool),
	}

	structs, probs := exportRegimes(pass)
	for _, p := range probs {
		pass.Reportf(p.Pos, "%s", p.Msg)
	}

	// Index the package's functions and goroutine spawn targets, then
	// validate every spec against them.
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				st.funcNames[fd.Name.Name] = true
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if callee := callutil.StaticCallee(pass.TypesInfo, g.Call); callee != nil {
					st.goTargets[callee.Name()] = true
				}
			}
			return true
		})
	}
	st.validate(structs)

	// Phase 1: walk every function body, recording accesses and calls
	// with the lock set live at each.
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			fi := &fnInfo{
				decl:   fd,
				obj:    obj,
				name:   fd.Name.Name,
				locked: strings.HasSuffix(fd.Name.Name, "Locked"),
			}
			if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
				fi.recv = fd.Recv.List[0].Names[0].Name
			}
			st.fns = append(st.fns, fi)
			if obj != nil {
				st.byObj[obj] = fi
			}
			st.walkFunc(fi)
		}
	}

	// Reachability per confined owner, over same-goroutine static calls.
	reach := st.confinedReach()

	// Phase 2: classify every access against its declared regime.
	for _, a := range st.accesses {
		st.checkAccess(a, reach)
	}

	// Phase 3: verify call sites of functions with caller-held needs,
	// propagating through *Locked callers to a fixed point.
	st.resolveCalls()

	// Export each function's needs and lock summary for dependent
	// packages, then close the lock graph over everything exported.
	st.exportSummaries()
	st.checkCycles()

	// A waiver must say why and must be needed: malformed ones and the
	// ones that never suppressed a finding are findings themselves.
	for _, w := range st.idx.All() {
		if w.Malformed != "" {
			pass.Reportf(w.Pos, "//insane:unguarded: %s", w.Malformed)
		}
	}
	for _, w := range st.idx.Unclaimed() {
		if w.Malformed == "" {
			pass.Reportf(w.Pos, "stale //insane:unguarded waiver: no regime finding on this or the next line (delete it or re-justify)")
		}
	}
	return nil, nil
}

// validate checks every spec of the package's shared structs against
// the declaring package: mu= locks must exist and be mutexes, rcu=,
// confined owner= and immutable after= must name package functions, and
// confined owners must actually be spawned as goroutines.
func (st *state) validate(structs []sharedStruct) {
	for _, s := range structs {
		for _, f := range s.Fields {
			if !f.HasSpec || f.Exempt || f.Var == nil {
				continue
			}
			r := f.Regime
			switch r.Kind {
			case directive.RegimeMutex:
				if _, _, msg := st.resolveLockSpec(f.Var, s, r.Arg); msg != "" {
					st.pass.Reportf(f.Pos, "//insane:guardedby mu=%s on %s.%s: %s", r.Arg, s.Name, f.Name, msg)
				}
			case directive.RegimeRCU:
				if !st.funcNames[r.Arg] {
					st.pass.Reportf(f.Pos, "//insane:guardedby rcu=%s on %s.%s: %s names no function in this package", r.Arg, s.Name, f.Name, r.Arg)
				}
			case directive.RegimeImmutable:
				if !st.funcNames[r.Arg] {
					st.pass.Reportf(f.Pos, "//insane:guardedby immutable after=%s on %s.%s: %s names no function in this package", r.Arg, s.Name, f.Name, r.Arg)
				}
			case directive.RegimeConfined:
				switch {
				case !st.funcNames[r.Arg]:
					st.pass.Reportf(f.Pos, "//insane:guardedby confined owner=%s on %s.%s: %s names no function in this package", r.Arg, s.Name, f.Name, r.Arg)
				case !st.goTargets[r.Arg]:
					st.pass.Reportf(f.Pos, "//insane:guardedby confined owner=%s on %s.%s: %s is never spawned with a go statement (see //insane:goroutine)", r.Arg, s.Name, f.Name, r.Arg)
				}
			}
		}
	}
}

// resolveLockSpec maps a mu= spec of a field to the lock's identity
// key and display name. The empty msg means success.
func (st *state) resolveLockSpec(field *types.Var, owner sharedStruct, arg string) (lockKey, lockName string, msg string) {
	pkg := field.Pkg()
	typeName, fieldName := owner.Name, arg
	if t, f, ok := strings.Cut(arg, "."); ok {
		typeName, fieldName = t, f
	}
	if pkg == nil {
		return "", "", "field has no package"
	}
	obj := pkg.Scope().Lookup(typeName)
	if obj == nil {
		return "", "", typeName + " names no type in this package"
	}
	strct, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return "", "", typeName + " is not a struct"
	}
	for i := 0; i < strct.NumFields(); i++ {
		fv := strct.Field(i)
		if fv.Name() != fieldName {
			continue
		}
		if !isMutex(fv.Type()) {
			return "", "", typeName + "." + fieldName + " is not a sync.Mutex or sync.RWMutex"
		}
		return pkg.Path() + "." + typeName + "." + fieldName, arg, ""
	}
	return "", "", typeName + " has no field " + fieldName
}

// lockFor resolves the mu= lock of a guarded field at an access site,
// in whichever package the field was declared.
func lockFor(field *types.Var, fact Regime) (lockKey, lockName string, qualified bool) {
	typeName, fieldName := fact.Struct, fact.R.Arg
	if t, f, ok := strings.Cut(fact.R.Arg, "."); ok {
		typeName, fieldName, qualified = t, f, true
	}
	if field.Pkg() == nil {
		return "", fact.R.Arg, qualified
	}
	return field.Pkg().Path() + "." + typeName + "." + fieldName, fact.R.Arg, qualified
}

// confinedReach computes, for every confined owner function named in
// this package's specs, the set of functions reachable from it through
// same-package static calls — excluding go statements, which start a
// different goroutine.
func (st *state) confinedReach() map[string]map[*fnInfo]bool {
	owners := make(map[string]bool)
	for _, a := range st.accesses {
		if a.fact.R.Kind == directive.RegimeConfined && a.field.Pkg() == st.pass.Pkg {
			owners[a.fact.R.Arg] = true
		}
	}
	if len(owners) == 0 {
		return nil
	}
	edges := make(map[*fnInfo][]*fnInfo)
	for _, c := range st.calls {
		if c.isGo {
			continue
		}
		if callee := st.byObj[c.callee]; callee != nil {
			edges[c.fn] = append(edges[c.fn], callee)
		}
	}
	out := make(map[string]map[*fnInfo]bool, len(owners))
	for owner := range owners {
		var roots []*fnInfo
		for _, fi := range st.fns {
			if fi.name == owner {
				roots = append(roots, fi)
			}
		}
		seen := make(map[*fnInfo]bool)
		callutil.NewSearch(roots...).BFS(func(fi *fnInfo) []*fnInfo {
			seen[fi] = true
			return edges[fi]
		})
		out[owner] = seen
	}
	return out
}

// checkAccess classifies one access against its field's regime.
func (st *state) checkAccess(a accessRec, reach map[string]map[*fnInfo]bool) {
	desc := fieldDesc(a.field, a.fact)
	switch a.fact.R.Kind {
	case directive.RegimeImmutable:
		if a.kind.writeLike() && !a.fresh && a.fn.name != a.fact.R.Arg {
			st.report(a.pos, "%s %s after init: writes are legal only inside %s",
				a.kind.verb(), desc, a.fact.R.Arg)
		}
	case directive.RegimeAtomic:
		if a.kind == akMethod || a.kind == akAddrCall || a.fresh {
			return
		}
		st.report(a.pos, "plain %s %s: use sync/atomic operations", a.kind.verb(), desc)
	case directive.RegimeRCU:
		mutates := a.kind.writeLike() ||
			(a.kind == akMethod && (a.method == "Store" || a.method == "Swap" || a.method == "CompareAndSwap"))
		if mutates && !a.fresh && a.fn.name != a.fact.R.Arg {
			st.report(a.pos, "%s %s outside its publisher: snapshots are rebuilt and published only by %s",
				a.kind.verb(), desc, a.fact.R.Arg)
		}
	case directive.RegimeConfined:
		if a.fresh {
			return
		}
		if a.field.Pkg() != st.pass.Pkg {
			st.report(a.pos, "%s %s outside its declaring package: confined fields never escape their owner goroutine",
				a.kind.verb(), desc)
			return
		}
		if a.inGo {
			st.report(a.pos, "%s %s inside a spawned goroutine: the field is confined to the goroutine running %s",
				a.kind.verb(), desc, a.fact.R.Arg)
			return
		}
		if r := reach[a.fact.R.Arg]; r == nil || !r[a.fn] {
			st.report(a.pos, "%s %s in %s, which is not reachable from its owner %s",
				a.kind.verb(), desc, a.fn.name, a.fact.R.Arg)
		}
	case directive.RegimeMutex:
		if a.fresh {
			return
		}
		lockKey, lockName, qualified := lockFor(a.field, a.fact)
		write := a.kind.writeLike()
		if satisfied(a.held, lockKey, qualified, a.base, write) {
			return
		}
		// The *Locked convention: the function may pass the burden to
		// its callers when the lock is expressible there — it lives on
		// the receiver the caller invokes the method on, or is
		// instance-independent (qualified).
		if a.fn.locked && (qualified || (a.fn.recv != "" && a.base == a.fn.recv)) {
			a.fn.addNeed(Need{
				LockKey:   lockKey,
				LockName:  lockName,
				Qualified: qualified,
				Write:     write,
				FieldDesc: desc,
				Chain:     []string{st.chainLink(a.fn.name, a.pos)},
			})
			return
		}
		mode := ""
		if write {
			mode = " for writing"
		}
		st.report(a.pos, "%s %s without holding %s%s", a.kind.verb(), desc, lockDisplay(a.base, lockName, qualified), mode)
	}
}

// summaryOf returns the Summary fact of a function of another package
// of the closure, or nil when it exported none.
func (st *state) summaryOf(fn *types.Func) *Summary {
	fn = fn.Origin()
	sum, ok := st.imported[fn]
	if !ok {
		sum = new(Summary)
		if !st.pass.ImportObjectFact(fn, sum) {
			sum = nil
		}
		st.imported[fn] = sum
	}
	return sum
}

// resolveCalls verifies the needs of every called function at every
// call site, propagating unsatisfied needs into *Locked callers until
// the package reaches a fixed point.
func (st *state) resolveCalls() {
	needsOf := func(callee *types.Func) []Need {
		if fi := st.byObj[callee]; fi != nil {
			return fi.needs
		}
		if sum := st.summaryOf(callee); sum != nil {
			return sum.Needs
		}
		return nil
	}

	done := make([]map[string]bool, len(st.calls))
	for i := range done {
		done[i] = make(map[string]bool)
	}
	for changed := true; changed; {
		changed = false
		for i := range st.calls {
			c := &st.calls[i]
			for _, n := range needsOf(c.callee) {
				k := n.key()
				if done[i][k] {
					continue
				}
				done[i][k] = true
				changed = true
				if c.recvFresh {
					continue
				}
				held := c.held
				if c.isGo {
					held = lockSet{} // a spawned goroutine inherits no locks
				}
				if satisfied(held, n.LockKey, n.Qualified, c.recvCanon, n.Write) {
					continue
				}
				chain := append(append([]string(nil), n.Chain...), st.chainLink(c.fn.name, c.pos))
				if c.fn.locked && !c.isGo && (n.Qualified || (c.fn.recv != "" && c.recvCanon == c.fn.recv)) {
					c.fn.addNeed(Need{
						LockKey:   n.LockKey,
						LockName:  n.LockName,
						Qualified: n.Qualified,
						Write:     n.Write,
						FieldDesc: n.FieldDesc,
						Chain:     chain,
					})
					continue
				}
				st.report(c.pos, "call to %s without holding %s: %s is accessed via %s",
					callutil.FuncName(c.callee, st.qual), lockDisplay(c.recvCanon, n.LockName, n.Qualified),
					n.FieldDesc, strings.Join(chain, " <- "))
			}
		}
	}
}

// report emits one regime finding unless an //insane:unguarded waiver
// covers its line.
func (st *state) report(pos token.Pos, format string, args ...interface{}) {
	if w, ok := st.idx.At(st.pass.Fset.Position(pos)); ok && w.Malformed == "" {
		return
	}
	st.reportf(pos, format, args...)
}

// reportf emits one finding, deduplicating repeated messages at one
// position.
func (st *state) reportf(pos token.Pos, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%v|%s", pos, msg)
	if st.reported[key] {
		return
	}
	st.reported[key] = true
	st.pass.Reportf(pos, "%s", msg)
}

func (st *state) qual(p *types.Package) string {
	if p == st.pass.Pkg {
		return ""
	}
	return p.Name()
}

func (st *state) chainLink(fn string, pos token.Pos) string {
	p := st.pass.Fset.Position(pos)
	return fmt.Sprintf("%s (%s:%d)", fn, filepath.Base(p.Filename), p.Line)
}

func fieldDesc(field *types.Var, fact Regime) string {
	pkg := ""
	if field.Pkg() != nil {
		pkg = field.Pkg().Name() + "."
	}
	return fmt.Sprintf("%s%s.%s (//insane:guardedby %s)", pkg, fact.Struct, field.Name(), fact.R.Spec())
}

func lockDisplay(base, lockName string, qualified bool) string {
	if qualified || base == "" {
		return lockName
	}
	return base + "." + lockName
}
