package paircheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"

	"github.com/insane-mw/insane/internal/lint/directive"
)

// tokStatus is the lifecycle position of one tracked resource unit.
type tokStatus int

const (
	stLive     tokStatus = iota // held by this function on this path
	stReleased                  // released or transferred on this path
)

// pending ties a token's existence (conditional acquire) or its
// discharge (conditional transfer) to a gating variable: the token's
// effect happened iff the predicate holds, where the predicate is
// "obj == nil" for CondNilErr gates and "obj is true" for CondTrue.
type pending struct {
	obj  types.Object
	cond directive.PairCond
	pos  token.Pos // the gated effect call site
	via  string    // rendered callee of that call
}

// holdsWhen reports whether the pending predicate is satisfied by the
// branch knowledge "obj is nil/true" (truth) for its condition kind.
// For CondNilErr truth means the error is nil; for CondTrue it means
// the bool is true — in both encodings the effect happened iff truth.
func (p *pending) matches(obj types.Object) bool {
	return p != nil && p.obj != nil && p.obj == obj
}

// guardDesc describes a condition a token's existence depends on:
// "key != nil" (nonNil) or "key is true" (bool sense), attached when a
// short-circuit conjunct hid the acquire behind another test
// (`ten != nil && !ten.chargeTX()`).
type guardDesc struct {
	key    string
	isBool bool
	sense  bool // true: token exists when key != nil / key is true
}

func (g *guardDesc) String() string {
	if g == nil {
		return ""
	}
	op := " != nil"
	if g.isBool {
		op = ""
	}
	if !g.sense {
		if g.isBool {
			return "!" + g.key
		}
		op = " == nil"
	}
	return g.key + op
}

// tok is one tracked unit of a resource on one path.
type tok struct {
	pos      token.Pos // acquire call site (diagnostic anchor + identity)
	resource string
	key      string   // canonical holder expression, "" when synthetic
	aliases  []string // other holders the unit flowed into (m := wrap(d))
	via      string   // rendered acquire callee, for messages
	status   tokStatus
	maybe    bool     // status merged from diverging paths: be lenient
	pendAcq  *pending // unresolved conditional acquire
	pendXfer *pending // unresolved conditional transfer
	guard    *guardDesc
	depth    int // loop depth at the acquire
	// holderPos is the declaration position of the variable holding the
	// unit (NoPos when the holder is synthetic): a holder declared
	// before a loop survives its iterations, so holding at an
	// iteration's end is not a per-lap leak.
	holderPos token.Pos
	relPos    token.Pos // release site, for double-release messages
	relVia    string
}

func (t *tok) id() [2]interface{} { return [2]interface{}{t.pos, t.resource} }

// live reports whether the token still demands a release on this path.
func (t *tok) live() bool { return t.status == stLive }

// firm reports whether the token provably exists and is unreleased:
// no unresolved acquire/transfer condition and no merge ambiguity.
func (t *tok) firm() bool {
	return t.status == stLive && !t.maybe && t.pendAcq == nil && t.pendXfer == nil
}

// deferEntry is one deferred call whose release effects apply at every
// subsequent exit of the function.
type deferEntry struct {
	pos  token.Pos
	call *ast.CallExpr
}

// state is the walker's per-path knowledge: the tracked tokens, the
// resources whose conditional acquire failed on this path, the pending
// defers, the branch trail for diagnostics and the kill set.
type state struct {
	toks    []*tok
	dropped map[string]token.Pos // resource -> failed-acquire site
	defers  []deferEntry
	trail   []string
	killed  map[string]kill // holder ("b", "m.d") -> the call that took its unit
}

func newState() *state {
	return &state{dropped: make(map[string]token.Pos), killed: make(map[string]kill)}
}

func (s *state) Clone() *state {
	c := &state{
		toks:    make([]*tok, len(s.toks)),
		dropped: make(map[string]token.Pos, len(s.dropped)),
		defers:  append([]deferEntry(nil), s.defers...),
		trail:   append([]string(nil), s.trail...),
		killed:  maps.Clone(s.killed),
	}
	for i, t := range s.toks {
		tc := *t
		tc.aliases = append([]string(nil), t.aliases...)
		c.toks[i] = &tc
	}
	for k, v := range s.dropped {
		c.dropped[k] = v
	}
	return c
}

// note appends a branch condition to the path trail (capped: only the
// most recent conditions matter to a reader).
func (s *state) note(cond string) {
	if len(s.trail) >= 6 {
		s.trail = append(s.trail[1:6:6], cond)
		return
	}
	s.trail = append(s.trail, cond)
}

// path renders the branch trail for a diagnostic.
func (s *state) path() string {
	if len(s.trail) == 0 {
		return ""
	}
	return " (path: " + strings.Join(s.trail, "; ") + ")"
}

// find returns the token with the given identity, or nil.
func (s *state) find(id [2]interface{}) *tok {
	for _, t := range s.toks {
		if t.id() == id {
			return t
		}
	}
	return nil
}

// liveOf returns the live tokens of one resource.
func (s *state) liveOf(resource string) []*tok {
	var out []*tok
	for _, t := range s.toks {
		if t.resource == resource && t.live() {
			out = append(out, t)
		}
	}
	return out
}

// storedOut reports whether a unit of the resource left this path by a
// store into memory that outlives the frame (escapeStores). For a declared
// acquirer that fills a struct its caller owns (`GetBuffer(b *Buffer)`
// writing `*b = Buffer{Slot: slot}`), that store is the hand-over.
func (s *state) storedOut(resource string) bool {
	for _, t := range s.toks {
		if t.resource == resource && t.status == stReleased && t.relVia == "store" {
			return true
		}
	}
	return false
}

// drop removes a token from the state entirely (its acquire did not
// happen on this path).
func (s *state) drop(t *tok) {
	for i, x := range s.toks {
		if x == t {
			s.toks = append(s.toks[:i:i], s.toks[i+1:]...)
			return
		}
	}
}

// merge joins the fall-through states of two branches. Tokens present
// on both sides merge status (diverging live/released goes lenient via
// maybe); one-sided tokens are kept as-is — the leak checks still see
// them, and the && / || splitters attach guards where the one-sidedness
// is a provable short-circuit. A holder stays dead only if it is dead on
// both sides. Returns nil iff both inputs are nil (both branches
// terminated).
func merge(a, b *state) *state {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.Clone()
	for _, bt := range b.toks {
		at := out.find(bt.id())
		if at == nil {
			tc := *bt
			out.toks = append(out.toks, &tc)
			continue
		}
		if at.status != bt.status {
			at.status = stLive
			at.maybe = true
		}
		for _, a := range bt.aliases {
			if !containsKey(at.aliases, a) {
				at.aliases = append(at.aliases, a)
			}
		}
		if at.pendAcq == nil && bt.pendAcq != nil {
			at.pendAcq = bt.pendAcq
		}
		if at.pendXfer == nil && bt.pendXfer != nil {
			at.pendXfer = bt.pendXfer
		}
		if at.guard != nil && (bt.guard == nil || *bt.guard != *at.guard) {
			// Guard knowledge diverged; keep the stronger claim only
			// when both sides agree.
			if bt.guard == nil {
				at.guard = nil
			}
		}
	}
	for r, pos := range b.dropped {
		if _, ok := out.dropped[r]; !ok {
			out.dropped[r] = pos
		}
	}
	for key := range out.killed {
		if _, dead := b.killed[key]; !dead {
			delete(out.killed, key)
		}
	}
	for _, bd := range b.defers {
		dup := false
		for _, ad := range out.defers {
			if ad.pos == bd.pos {
				dup = true
				break
			}
		}
		if !dup {
			out.defers = append(out.defers, bd)
		}
	}
	return out
}

// Join is the token merge of the states that fall out of a construct.
// Its kill set is the one the construct was entered with, less what a
// path out of it revived: a kill inside a branch does not escape it (no
// finding after `if cond { Emit(b) } else { Abort(b) }`), while a holder
// reassigned, or handed back by a failed transfer
// (`if err == nil { return nil }` after Emit), lives on.
func (s *state) Join(outs []*state) *state {
	var out *state
	for _, o := range outs {
		out = merge(out, o)
	}
	killed := make(map[string]kill, len(s.killed))
	for key, k := range s.killed {
		if _, dead := out.killed[key]; dead {
			killed[key] = k
		}
	}
	out.killed = killed
	return out
}
