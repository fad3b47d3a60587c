package lockorder

import (
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/callutil"
)

// edge is one acquired-after relation in the global lock graph: while
// holding from, some function acquires to.
type edge struct {
	from, to LockRef
	pos      token.Pos // where the relation is established
	where    string    // "core.send" or "core.send -> ringbuf.Push"
	fn       *types.Func
}

// checkCycles builds the acquired-after graph from every LockSummary
// exported so far and reports the cycles closed by this package's
// functions. Dependencies run first, so by the time a package is
// analyzed the graph holds its entire downward closure; reporting only
// edges owned by the current package keeps each cycle at one
// diagnostic, at the source position that closes it.
func checkCycles(pass *analysis.Pass, cycleSeen map[string]bool) {
	sums := make(map[*types.Func]*LockSummary)
	var fns []*types.Func
	for _, of := range pass.AllObjectFacts() {
		fn, ok := of.Object.(*types.Func)
		if !ok {
			continue
		}
		sum, ok := of.Fact.(*LockSummary)
		if !ok {
			continue
		}
		sums[fn] = sum
		fns = append(fns, fn)
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
		if visiting[fn] {
			return nil
		}
		visiting[fn] = true
		defer delete(visiting, fn)
		sum := sums[fn]
		if sum == nil {
			return nil
		}
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
					via := append([]*types.Func{c.Callee}, t.via...)
					out = append(out, transAcq{lock: t.lock, via: via})
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
		if e.fn.Pkg() == pass.Pkg {
			local = append(local, e)
		}
	}
	for _, fn := range fns {
		sum := sums[fn]
		for _, a := range sum.Acquires {
			for _, held := range a.Held {
				add(edge{from: held, to: a.Lock, pos: a.Pos, where: funcDisp(fn), fn: fn})
			}
		}
		for _, c := range sum.Calls {
			if len(c.Held) == 0 {
				continue
			}
			for _, t := range trans(c.Callee) {
				if len(t.via) == 0 {
					// Direct acquire in the callee's own body.
					t.via = []*types.Func{c.Callee}
				} else {
					t.via = append([]*types.Func{c.Callee}, t.via...)
				}
				parts := make([]string, 0, len(t.via)+1)
				parts = append(parts, funcDisp(fn))
				for _, v := range t.via {
					parts = append(parts, funcDisp(v))
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
		key := cycleKey(ids)
		if cycleSeen[key] {
			continue
		}
		cycleSeen[key] = true
		var b strings.Builder
		b.WriteString(e.from.Disp)
		b.WriteString(" -> " + e.to.Disp + " (in " + e.where + ")")
		for _, p := range path {
			b.WriteString(" -> " + p.to.Disp + " (in " + p.where + ")")
		}
		pass.Reportf(e.pos, "acquiring %s while holding %s closes a lock cycle: %s", e.to.Disp, e.from.Disp, b.String())
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

// funcDisp renders a function for chain text: "core.send" or
// "(*core.Runtime).Close".
func funcDisp(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, okp := t.(*types.Pointer); okp {
			t = p.Elem()
			ptr = "*"
		}
		if named, okn := t.(*types.Named); okn {
			obj := named.Obj()
			if obj.Pkg() != nil {
				recv := obj.Pkg().Name() + "." + obj.Name()
				if ptr != "" {
					return "(*" + recv + ")." + fn.Name()
				}
				return recv + "." + fn.Name()
			}
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
