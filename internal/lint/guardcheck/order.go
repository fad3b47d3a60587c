package guardcheck

// The whole-program half of the lock-order rule: every function's
// Summary carries its acquisitions (the lock classes held at each) and
// its module-internal calls (the classes held at each call site). Over
// the dependency closure those summaries form a global acquired-after
// graph; a cycle in it is a potential deadlock between some pair of
// instances.

import (
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"github.com/insane-mw/insane/internal/lint/callutil"
)

// LockRef identifies one lock class in the global graph.
type LockRef struct {
	// ID is the fully-qualified declaring type plus field, e.g.
	// "github.com/insane-mw/insane/internal/core.techState.schedMu".
	ID string
	// Disp is the short display form, e.g. "core.techState.schedMu".
	Disp string
}

// Acquire records one blocking Lock/RLock and the lock classes held at
// it.
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

// refs returns the distinct lock classes held, sorted by ID.
func (s lockSet) refs() []LockRef {
	var out []LockRef
	seen := make(map[string]bool)
	for _, h := range s {
		if h.disp != "" && !seen[h.lockKey] {
			seen[h.lockKey] = true
			out = append(out, LockRef{ID: h.lockKey, Disp: h.disp})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// sameOwner reports whether two field locks belong to the same receiver
// expression or the same struct type.
func sameOwner(a, b heldLock) bool {
	if a.base != "" && a.base == b.base {
		return true
	}
	owner := func(h heldLock) string { return strings.TrimSuffix(h.lockKey, "."+h.field()) }
	return a.disp != "" && b.disp != "" && owner(a) == owner(b)
}

// exportSummaries exports each function's Summary: its needs, its
// acquisitions and its calls into the module closure outside spawned
// goroutines (a go statement orders nothing in its caller).
func (st *state) exportSummaries() {
	calls := make(map[*fnInfo][]LockCall)
	for _, c := range st.calls {
		callee := c.callee.Origin()
		if c.isGo || c.inGo || (callee.Pkg() != st.pass.Pkg && st.summaryOf(callee) == nil) {
			continue // a spawned call, or a callee that takes no lock or lies outside the closure
		}
		calls[c.fn] = append(calls[c.fn], LockCall{Callee: callee, Held: c.held.refs(), Pos: c.pos})
	}
	for _, fi := range st.fns {
		sum := &Summary{Needs: fi.needs, Acquires: fi.acquires, Calls: calls[fi]}
		if fi.obj != nil && len(sum.Needs)+len(sum.Acquires)+len(sum.Calls) > 0 {
			st.pass.ExportObjectFact(fi.obj, sum)
		}
	}
}

// edge is one acquired-after relation in the global lock graph: while
// holding from, some function acquires to.
type edge struct {
	from, to LockRef
	pos      token.Pos // where the relation is established
	where    string    // "core.send" or "core.send -> ringbuf.Push"
	fn       *types.Func
}

// checkCycles builds the acquired-after graph from every Summary
// exported so far and reports the cycles closed by this package's
// functions. Dependencies run first, so by the time a package is
// analyzed the graph holds its entire downward closure; reporting only
// edges owned by the current package keeps each cycle at one
// diagnostic, at the source position that closes it.
func (st *state) checkCycles() {
	sums := make(map[*types.Func]*Summary)
	var fns []*types.Func
	for _, of := range st.pass.AllObjectFacts() {
		fn, ok := of.Object.(*types.Func)
		sum, okSum := of.Fact.(*Summary)
		if ok && okSum {
			sums[fn] = sum
			fns = append(fns, fn)
		}
	}
	disp := func(fn *types.Func) string {
		return callutil.FuncName(fn, func(p *types.Package) string { return p.Name() })
	}

	// trans computes the lock classes a function's call tree acquires,
	// with the call chain that reaches each (for diagnostics). Memoized;
	// recursion through the call graph is cut at in-progress nodes.
	type transAcq struct {
		lock LockRef
		via  []*types.Func
	}
	memo := make(map[*types.Func][]transAcq)
	visiting := make(map[*types.Func]bool)
	var trans func(fn *types.Func) []transAcq
	trans = func(fn *types.Func) []transAcq {
		if got, ok := memo[fn]; ok {
			return got
		}
		sum := sums[fn]
		if visiting[fn] || sum == nil {
			return nil
		}
		visiting[fn] = true
		defer delete(visiting, fn)
		var out []transAcq
		seen := make(map[string]bool)
		for _, a := range sum.Acquires {
			if !seen[a.Lock.ID] {
				seen[a.Lock.ID] = true
				out = append(out, transAcq{lock: a.Lock})
			}
		}
		for _, c := range sum.Calls {
			for _, t := range trans(c.Callee) {
				if !seen[t.lock.ID] {
					seen[t.lock.ID] = true
					out = append(out, transAcq{lock: t.lock, via: append([]*types.Func{c.Callee}, t.via...)})
				}
			}
		}
		memo[fn] = out
		return out
	}

	// Build the adjacency lists. AllObjectFacts returns facts in export
	// order, so the graph (and every traversal below) is deterministic.
	adj := make(map[string][]edge)
	var local []edge // edges established by this package's functions
	add := func(e edge) {
		if e.from.ID == e.to.ID {
			return // same-class nesting, not an inter-class order
		}
		adj[e.from.ID] = append(adj[e.from.ID], e)
		if e.fn.Pkg() == st.pass.Pkg {
			local = append(local, e)
		}
	}
	for _, fn := range fns {
		sum := sums[fn]
		for _, a := range sum.Acquires {
			for _, held := range a.Held {
				add(edge{from: held, to: a.Lock, pos: a.Pos, where: disp(fn), fn: fn})
			}
		}
		for _, c := range sum.Calls {
			if len(c.Held) == 0 {
				continue
			}
			for _, t := range trans(c.Callee) {
				parts := []string{disp(fn), disp(c.Callee)}
				for _, v := range t.via {
					parts = append(parts, disp(v))
				}
				for _, held := range c.Held {
					add(edge{from: held, to: t.lock, pos: c.Pos, where: strings.Join(parts, " -> "), fn: fn})
				}
			}
		}
	}

	// Report each cycle once, at the first local edge (in source order)
	// that closes it.
	sort.Slice(local, func(i, j int) bool { return local[i].pos < local[j].pos })
	for _, e := range local {
		path := findPath(adj, e.to.ID, e.from.ID)
		if path == nil {
			continue
		}
		ids := []string{e.from.ID, e.to.ID}
		for _, p := range path {
			ids = append(ids, p.to.ID)
		}
		key := cycleKey(ids...)
		if st.cycleSeen[key] {
			continue
		}
		st.cycleSeen[key] = true
		var b strings.Builder
		b.WriteString(e.from.Disp)
		b.WriteString(" -> " + e.to.Disp + " (in " + e.where + ")")
		for _, p := range path {
			b.WriteString(" -> " + p.to.Disp + " (in " + p.where + ")")
		}
		st.reportf(e.pos, "acquiring %s while holding %s closes a lock cycle: %s", e.to.Disp, e.from.Disp, b.String())
	}
}

// findPath returns the edges of a shortest path from lock class `from`
// to `to` in the acquired-after graph, or nil when unreachable.
func findPath(adj map[string][]edge, from, to string) []edge {
	search := callutil.NewSearch(from)
	search.BFS(func(id string) []string {
		next := make([]string, len(adj[id]))
		for i, e := range adj[id] {
			next[i] = e.to.ID
		}
		return next
	})
	if !search.Seen(to) {
		return nil
	}
	// The search reached each class through the first edge listed for
	// its parent, so that edge is the one on the path.
	path := []edge{}
	chain := search.Chain(to)
	for i, id := range chain[1:] {
		for _, e := range adj[chain[i]] {
			if e.to.ID == id {
				path = append(path, e)
				break
			}
		}
	}
	return path
}

// cycleKey canonicalizes a set of lock IDs for deduplication.
func cycleKey(ids ...string) string {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	return strings.Join(slices.Compact(sorted), "\x00")
}
