// Package directive parses the `//lint:ignore` suppression comments
// understood by the insanevet drivers.
//
// The accepted form is:
//
//	//lint:ignore insanevet/<rule> <reason>
//
// A directive written on its own line suppresses matching diagnostics
// on the next source line; a directive trailing a statement suppresses
// diagnostics on its own line. The reason is mandatory: a directive
// without one does not suppress anything and is itself reported by the
// driver, so every waiver is documented in the tree.
package directive

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
	"unicode"
)

// prefix is the comment marker shared with staticcheck-style tooling.
const prefix = "//lint:ignore "

// namespace scopes rules to this suite: `insanevet/bufownership`.
const namespace = "insanevet/"

// Anchor locates one line-anchored annotation; every annotation type
// embeds it.
type Anchor struct {
	// File and Line locate the annotation's comment.
	File string
	Line int
	// Pos is the comment's position (for diagnostics about it).
	Pos token.Pos
	// Malformed is set when the annotation was recognized but cannot do
	// its job (a missing reason, an unknown key); it says why.
	Malformed string
}

func (a *Anchor) anchor() *Anchor { return a }

// annotation is a pointer to a type embedding Anchor.
type annotation interface {
	comparable
	anchor() *Anchor
}

// Lines indexes the annotations of one kind in a package by the lines
// they cover. An annotation covers its own line (trailing comment) and
// the next (comment-above style); the index also tracks which ones a
// statement claimed, so the strays that annotate nothing can be
// surfaced instead of silently ignored.
type Lines[T annotation] struct {
	byLine  map[string]map[int][]T
	all     []T
	claimed map[T]bool
}

// Scan builds the index of the annotations parse recognizes among the
// files' comments, malformed ones included.
func Scan[T annotation](fset *token.FileSet, files []*ast.File, parse func(text string) (T, bool)) *Lines[T] {
	idx := &Lines[T]{byLine: make(map[string]map[int][]T), claimed: make(map[T]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				t, ok := parse(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				a := t.anchor()
				a.File, a.Line, a.Pos = pos.Filename, pos.Line, c.Pos()
				idx.all = append(idx.all, t)
				lines := idx.byLine[a.File]
				if lines == nil {
					lines = make(map[int][]T)
					idx.byLine[a.File] = lines
				}
				lines[a.Line] = append(lines[a.Line], t)
				lines[a.Line+1] = append(lines[a.Line+1], t)
			}
		}
	}
	return idx
}

// All returns every annotation in source order.
func (idx *Lines[T]) All() []T { return idx.all }

// Covering returns the annotations covering pos, in source order,
// without claiming them.
func (idx *Lines[T]) Covering(pos token.Position) []T {
	return idx.byLine[pos.Filename][pos.Line]
}

// At returns the annotation attached to the statement at pos — of two
// covering it, the trailing one on its own line — and marks it claimed.
// Malformed annotations attach too: the caller reports them where they
// were meant to apply.
func (idx *Lines[T]) At(pos token.Position) (T, bool) {
	cover := idx.Covering(pos)
	if len(cover) == 0 {
		var zero T
		return zero, false
	}
	t := cover[len(cover)-1]
	idx.claimed[t] = true
	return t, true
}

// Unclaimed returns the annotations no statement looked up with At.
func (idx *Lines[T]) Unclaimed() []T {
	var out []T
	for _, t := range idx.all {
		if !idx.claimed[t] {
			out = append(out, t)
		}
	}
	return out
}

// Ignore is one parsed suppression directive.
type Ignore struct {
	Anchor
	// Rule is the analyzer name being waived (without the insanevet/
	// namespace), or "*" for all rules.
	Rule string
	// Reason is the justification text after the rule.
	Reason string
}

// parseIgnore interprets one comment as a //lint:ignore directive.
func parseIgnore(text string) (*Ignore, bool) {
	rest, ok := strings.CutPrefix(text, prefix)
	if !ok {
		return nil, false
	}
	malformed := func(rule, why string) (*Ignore, bool) {
		return &Ignore{Rule: rule, Anchor: Anchor{Malformed: why}}, true
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return malformed("", "missing rule and reason")
	}
	rule := fields[0]
	reason := strings.TrimSpace(strings.TrimPrefix(rest, rule))
	scoped, hasScope := strings.CutPrefix(rule, namespace)
	switch {
	case !hasScope:
		return malformed(rule, "rule must be namespaced as "+namespace+"<rule>")
	case scoped == "":
		return malformed("", "empty rule after "+namespace)
	case reason == "":
		return malformed(scoped, "missing reason")
	}
	return &Ignore{Rule: scoped, Reason: reason}, true
}

// Index answers suppression queries for one package.
type Index struct{ *Lines[*Ignore] }

// NewIndex builds an Index from the package's files.
func NewIndex(fset *token.FileSet, files []*ast.File) *Index {
	return &Index{Scan(fset, files, parseIgnore)}
}

// Suppresses reports whether a diagnostic of the named rule at pos is
// waived by a well-formed directive.
func (idx *Index) Suppresses(pos token.Position, rule string) bool {
	for _, ig := range idx.Covering(pos) {
		if ig.Malformed == "" && (ig.Rule == rule || ig.Rule == "*") {
			return true
		}
	}
	return false
}

// Malformed returns the directives that were recognized but cannot
// suppress anything, so drivers can surface them.
func (idx *Index) Malformed() []*Ignore {
	var out []*Ignore
	for _, ig := range idx.All() {
		if ig.Malformed != "" {
			out = append(out, ig)
		}
	}
	return out
}

// optKey is one key of a marker's option grammar.
type optKey struct {
	name     string
	hint     string   // value placeholder in messages: "<name>", "<reason>" or ""
	optional bool     // may be absent
	enum     []string // allowed values, nil for any
	tail     bool     // free text: the value runs to the end of the line
	reject   string   // the key is recognized only to be refused, with this message
}

// grammar is the option grammar of one //insane: marker: `key=value`
// fields in any order, except that a tail key swallows the rest of the
// line and so comes last.
type grammar []optKey

func (g grammar) key(name string) *optKey {
	for i := range g {
		if g[i].name == name {
			return &g[i]
		}
	}
	return nil
}

// keyList renders the keys for a message: "owner= and stop=".
func keyList(keys []optKey, hints bool) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.name + "="
		if hints {
			parts[i] += k.hint
		}
	}
	return strings.Join(parts, " and ")
}

// parse interprets the text after a marker, returning the values by
// key, or the malformed-directive message.
func (g grammar) parse(rest string) (map[string]string, string) {
	vals := make(map[string]string)
	var tailSeen bool
	for rest = strings.TrimSpace(rest); rest != ""; {
		field, after := rest, ""
		if i := strings.IndexFunc(rest, unicode.IsSpace); i >= 0 {
			field, after = rest[:i], rest[i:]
		}
		name, val, isKV := strings.Cut(field, "=")
		k := g.key(name)
		switch {
		case len(g) == 1 && (!isKV || k == nil):
			return nil, "option " + field + " is not " + keyList(g, true)
		case !isKV:
			return nil, "option " + field + " is not key=value"
		case k != nil && k.tail:
			val = strings.TrimSpace(rest[len(name)+1:])
			if val == "" {
				return nil, "empty reason after " + name + "="
			}
			after, tailSeen = "", true
		case val == "":
			return nil, "empty value for " + name + "="
		case k == nil:
			return nil, "unknown key " + name + " (only " + keyList(g, false) + " are recognized)"
		case k.reject != "":
			return nil, k.reject
		case k.enum != nil && !slices.Contains(k.enum, val):
			return nil, "unknown " + name + "= value " + val + " (only " + strings.Join(k.enum, " and ") + " are recognized)"
		}
		vals[name] = val
		rest = strings.TrimSpace(after)
	}
	var missing []optKey
	for _, k := range g {
		if _, ok := vals[k.name]; !ok && !k.optional && k.reject == "" {
			missing = append(missing, k)
		}
	}
	switch {
	case len(missing) == 0:
		return vals, ""
	case tailSeen:
		// The free text swallowed whatever followed it.
		return nil, keyList(missing, true) + " must come first (the " + g[len(g)-1].name + "= reason runs to end of line)"
	}
	return nil, "missing " + keyList(missing, true)
}

// matchesMarker reports whether text is the marker, bare or with
// options. Prefix matching alone would let //insane:released shadow
// //insane:release.
func matchesMarker(text, marker string) bool {
	return text == marker || strings.HasPrefix(text, marker+" ")
}

// goroutineMarker introduces a goroutine-ownership annotation,
// mirroring the //insane:hotpath convention:
//
//	//insane:goroutine owner=<type> stop=<method>
//
// placed on the line of a `go` statement or on the line above it. The
// owner names a struct type in the same package and stop a method on
// it (or its pointer type) that joins the goroutine; the goroutinecheck
// analyzer verifies both and that the method signals the stop
// mechanism the goroutine actually waits on.
const goroutineMarker = "//insane:goroutine"

var goroutineGrammar = grammar{{name: "owner"}, {name: "stop"}}

// Goroutine is one parsed //insane:goroutine annotation.
type Goroutine struct {
	Anchor
	// Owner is the declared owning type name (the value of owner=).
	Owner string
	// Stop is the declared shutdown method name (the value of stop=).
	Stop string
}

// ParseGoroutine interprets one comment as a goroutine annotation.
func ParseGoroutine(text string) (*Goroutine, bool) {
	text = strings.TrimSpace(text)
	if !matchesMarker(text, goroutineMarker) {
		return nil, false
	}
	vals, bad := goroutineGrammar.parse(strings.TrimPrefix(text, goroutineMarker))
	return &Goroutine{Owner: vals["owner"], Stop: vals["stop"], Anchor: Anchor{Malformed: bad}}, true
}
