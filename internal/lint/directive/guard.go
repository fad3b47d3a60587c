package directive

import (
	"go/ast"
	"strings"
)

// The shared-state regime markers feed the guardcheck analyzer
// (DESIGN.md §14). A struct whose doc comment carries //insane:shared
// declares itself concurrently accessed; every one of its fields must
// then name its synchronization regime in the field's doc or line
// comment:
//
//	//insane:guardedby mu=<lockfield>          accessed only while the mutex is held
//	//insane:guardedby atomic                  accessed only through sync/atomic ops
//	//insane:guardedby rcu=<publisher>         published snapshot: stored only inside <publisher>
//	//insane:guardedby confined owner=<func>   touched only by the goroutine running <func>
//	//insane:guardedby immutable after=<func>  never written once <func> returns
//
// The mu= lock is a sibling field by default; <Type>.<field> names a
// lock living in another struct (a child object's fields guarded by its
// owner's mu). Fields of sync primitive types (Mutex,
// RWMutex, WaitGroup, Once) are the regimes' own machinery and carry no
// marker.
//
// //insane:unguarded <reason> waives the regime proof for the access on
// its own or the following line. guardcheck verifies the waiver is
// needed — one that suppresses nothing is itself a finding.
const (
	sharedMarker    = "//insane:shared"
	guardedByMarker = "//insane:guardedby"
	unguardedMarker = "//insane:unguarded"
)

// RegimeKind is the synchronization regime class of one guarded field.
type RegimeKind int

// Regime classes.
const (
	// RegimeMutex: access only while the named mutex is held.
	RegimeMutex RegimeKind = iota
	// RegimeAtomic: access only through sync/atomic operations.
	RegimeAtomic
	// RegimeRCU: a published snapshot — stored only inside the named
	// publisher function, loaded anywhere, never mutated in place.
	RegimeRCU
	// RegimeConfined: touched only by the goroutine running the named
	// owner function (or its callees).
	RegimeConfined
	// RegimeImmutable: never written after the named init function
	// returns.
	RegimeImmutable
)

// String names the kind as written in the source marker.
func (k RegimeKind) String() string {
	switch k {
	case RegimeMutex:
		return "mu"
	case RegimeAtomic:
		return "atomic"
	case RegimeRCU:
		return "rcu"
	case RegimeConfined:
		return "confined"
	case RegimeImmutable:
		return "immutable"
	}
	return "regime"
}

// Regime is one parsed //insane:guardedby specification.
type Regime struct {
	Kind RegimeKind
	// Arg is the kind's parameter: the lock field for mu (bare name, or
	// "<Type>.<field>" for a lock in another struct), the publisher
	// function for rcu, the owner function for confined, the init
	// function for immutable. Empty for atomic.
	Arg string
}

// Spec renders the regime as it is written in source.
func (r Regime) Spec() string {
	switch r.Kind {
	case RegimeMutex:
		return "mu=" + r.Arg
	case RegimeAtomic:
		return "atomic"
	case RegimeRCU:
		return "rcu=" + r.Arg
	case RegimeConfined:
		return "confined owner=" + r.Arg
	case RegimeImmutable:
		return "immutable after=" + r.Arg
	}
	return ""
}

// HasShared reports whether the comment group carries //insane:shared.
func HasShared(doc *ast.CommentGroup) bool { return HasMarker(doc, sharedMarker) }

// ParseGuardedBy extracts the //insane:guardedby specification from a
// field's doc or line comment group. It returns the regime, whether a
// marker was present at all, and malformed markers as problems.
func ParseGuardedBy(groups ...*ast.CommentGroup) (Regime, bool, []Problem) {
	var probs []Problem
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !matchesMarker(text, guardedByMarker) {
				continue
			}
			r, msg := parseRegime(strings.TrimPrefix(text, guardedByMarker))
			if msg != "" {
				return r, true, append(probs, Problem{Pos: c.Pos(), Msg: guardedByMarker + ": " + msg})
			}
			return r, true, probs
		}
	}
	return Regime{}, false, probs
}

// parseRegime interprets the text after the //insane:guardedby marker.
func parseRegime(rest string) (Regime, string) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return Regime{}, "missing regime (mu=<lock>, atomic, rcu=<publisher>, confined owner=<func>, immutable after=<func>)"
	}
	head := fields[0]
	switch {
	case head == "atomic":
		if len(fields) > 1 {
			return Regime{Kind: RegimeAtomic}, "atomic takes no options"
		}
		return Regime{Kind: RegimeAtomic}, ""
	case strings.HasPrefix(head, "mu="):
		arg := strings.TrimPrefix(head, "mu=")
		if arg == "" {
			return Regime{Kind: RegimeMutex}, "empty value for mu="
		}
		if len(fields) > 1 {
			return Regime{Kind: RegimeMutex}, "mu= takes no further options"
		}
		return Regime{Kind: RegimeMutex, Arg: arg}, ""
	case strings.HasPrefix(head, "rcu="):
		arg := strings.TrimPrefix(head, "rcu=")
		if arg == "" {
			return Regime{Kind: RegimeRCU}, "empty value for rcu="
		}
		if len(fields) > 1 {
			return Regime{Kind: RegimeRCU}, "rcu= takes no further options"
		}
		return Regime{Kind: RegimeRCU, Arg: arg}, ""
	case head == "confined":
		if len(fields) != 2 || !strings.HasPrefix(fields[1], "owner=") {
			return Regime{Kind: RegimeConfined}, "confined needs exactly owner=<func>"
		}
		arg := strings.TrimPrefix(fields[1], "owner=")
		if arg == "" {
			return Regime{Kind: RegimeConfined}, "empty value for owner="
		}
		return Regime{Kind: RegimeConfined, Arg: arg}, ""
	case head == "immutable":
		if len(fields) != 2 || !strings.HasPrefix(fields[1], "after=") {
			return Regime{Kind: RegimeImmutable}, "immutable needs exactly after=<func>"
		}
		arg := strings.TrimPrefix(fields[1], "after=")
		if arg == "" {
			return Regime{Kind: RegimeImmutable}, "empty value for after="
		}
		return Regime{Kind: RegimeImmutable, Arg: arg}, ""
	}
	return Regime{}, "unknown regime " + head + " (mu=, atomic, rcu=, confined, immutable are recognized)"
}

// Unguarded is one //insane:unguarded waiver; everything after the
// marker is the mandatory reason.
type Unguarded struct {
	Anchor
	Reason string
}

// ParseUnguarded interprets one comment as an unguarded waiver.
func ParseUnguarded(text string) (*Unguarded, bool) {
	text = strings.TrimSpace(text)
	if !matchesMarker(text, unguardedMarker) {
		return nil, false
	}
	w := &Unguarded{Reason: strings.TrimSpace(strings.TrimPrefix(text, unguardedMarker))}
	if w.Reason == "" {
		w.Malformed = "missing reason"
	}
	return w, true
}
