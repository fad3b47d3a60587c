package directive

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The //insane:* markers shared by the hot-path analyzers. hotpathcheck
// and boundedcheck both root their traversals at //insane:hotpath
// functions and stop at //insane:coldpath barriers, so the parsing
// lives here rather than in either analyzer.
const (
	// HotMarker declares a hot-path root (on a function declaration) or
	// a trusted boundary (on an interface method).
	HotMarker = "//insane:hotpath"
	// ColdMarker excludes a control-plane function from hot-path
	// traversal; a reason is mandatory.
	ColdMarker = "//insane:coldpath"
)

// FuncDirectives is the parse result of the //insane:hotpath and
// //insane:coldpath markers on one function declaration.
type FuncDirectives struct {
	// Hot marks an //insane:hotpath root.
	Hot bool
	// AllowBlock is the allow=block option: the root may block
	// (Consume-style waits) but must still not allocate.
	AllowBlock bool
	// Cold marks an //insane:coldpath traversal barrier.
	Cold bool
}

// Problem is one malformed directive found while parsing, for the
// analyzer that owns reporting it (hotpathcheck, so the same mistake is
// not reported once per analyzer that shares the parse).
type Problem struct {
	Pos token.Pos
	Msg string
}

// ParseFuncDecl extracts the insane: markers from a declaration's doc
// comment group, returning malformed ones as problems.
func ParseFuncDecl(doc *ast.CommentGroup) (FuncDirectives, []Problem) {
	var d FuncDirectives
	var probs []Problem
	if doc == nil {
		return d, nil
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		switch {
		case text == HotMarker:
			d.Hot = true
		case strings.HasPrefix(text, HotMarker+" "):
			d.Hot = true
			for _, opt := range strings.Fields(text[len(HotMarker):]) {
				if opt == "allow=block" {
					d.AllowBlock = true
				} else {
					probs = append(probs, Problem{
						Pos: c.Pos(),
						Msg: "unknown " + HotMarker + " option \"" + opt + "\" (only allow=block is recognized)",
					})
				}
			}
		case text == ColdMarker:
			probs = append(probs, Problem{Pos: c.Pos(), Msg: ColdMarker + " directive missing a reason"})
			d.Cold = true
		case strings.HasPrefix(text, ColdMarker+" "):
			d.Cold = true
		}
	}
	return d, probs
}

// HasMarker reports whether a comment group carries the directive,
// bare or with options.
func HasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if matchesMarker(strings.TrimSpace(c.Text), marker) {
			return true
		}
	}
	return false
}

// boundedMarker vouches for a loop the boundedcheck analyzer cannot
// prove work-bounded:
//
//	//insane:bounded by=<reason>
//
// placed on the line of a for/range statement or on the line above it.
// The reason is free text and mandatory: every waived loop documents
// what actually bounds it (a validated config list, a caller-sized
// batch buffer, a CAS retry that only loses to concurrent progress).
const boundedMarker = "//insane:bounded"

var boundedGrammar = grammar{{name: "by", hint: "<reason>", tail: true}}

// Bounded is one parsed //insane:bounded annotation.
type Bounded struct {
	Anchor
	// By is the documented bound (the value of by=, the rest of the
	// line, spaces included).
	By string
}

// ParseBounded interprets one comment as a bounded annotation.
func ParseBounded(text string) (*Bounded, bool) {
	text = strings.TrimSpace(text)
	if !matchesMarker(text, boundedMarker) {
		return nil, false
	}
	vals, bad := boundedGrammar.parse(strings.TrimPrefix(text, boundedMarker))
	return &Bounded{By: vals["by"], Anchor: Anchor{Malformed: bad}}, true
}

// HotInterfaceMethods returns the interface methods declared in files
// that carry //insane:hotpath. Such a method is a trusted boundary for
// every hot-path rule: implementations are vetted where they are
// defined, so calls through it are neither followed nor flagged as
// unknown.
func HotInterfaceMethods(files []*ast.File, info *types.Info) []*types.Func {
	var out []*types.Func
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok || it.Methods == nil {
				return true
			}
			for _, field := range it.Methods.List {
				// An embedded interface has no names of its own.
				if !HasMarker(field.Doc, HotMarker) && !HasMarker(field.Comment, HotMarker) {
					continue
				}
				for _, name := range field.Names {
					if m, ok := info.Defs[name].(*types.Func); ok {
						out = append(out, m)
					}
				}
			}
			return true
		})
	}
	return out
}
