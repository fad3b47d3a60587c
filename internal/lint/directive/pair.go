package directive

import (
	"go/ast"
	"strings"
)

// The //insane:acquire / //insane:release / //insane:transfer markers
// declare a function's resource-balance effect for the paircheck
// analyzer (DESIGN.md §13), placed in the function's doc comment:
//
//	//insane:acquire resource=<name> [on=true|on=nilerr]
//	//insane:release resource=<name>
//	//insane:transfer resource=<name> [on=true|on=nilerr]
//	//insane:unbalanced resource=<name> by=<reason>
//
// An acquire means calling the function obtains one unit of the named
// resource; a release returns one; a transfer consumes the caller's
// unit by handing it to another owner (a ring, a scheduler, a pool).
// The on= option makes the effect conditional: on=true ties it to the
// function returning true (its single bool result), on=nilerr to the
// function returning a nil error (its last error result). Without on=
// the effect is unconditional.
//
// //insane:unbalanced waives the balance proof for one resource in the
// annotated function; the mandatory by= reason documents who completes
// the pair (e.g. a charge stored in runtime state and refunded by a
// later release). paircheck verifies the waiver is actually needed —
// a waiver on a balanced function is itself a finding.
const (
	acquireMarker    = "//insane:acquire"
	releaseMarker    = "//insane:release"
	transferMarker   = "//insane:transfer"
	unbalancedMarker = "//insane:unbalanced"
)

// PairKind is the effect class of one pair annotation.
type PairKind int

// Effect classes.
const (
	PairAcquire PairKind = iota
	PairRelease
	PairTransfer
)

// String names the kind as written in the source marker.
func (k PairKind) String() string {
	switch k {
	case PairAcquire:
		return "acquire"
	case PairRelease:
		return "release"
	case PairTransfer:
		return "transfer"
	}
	return "pair"
}

// PairCond is the condition an effect is tied to.
type PairCond int

// Effect conditions.
const (
	// CondAlways: the effect happens on every call.
	CondAlways PairCond = iota
	// CondTrue: the effect happens iff the function returns true.
	CondTrue
	// CondNilErr: the effect happens iff the function returns a nil
	// error.
	CondNilErr
)

// String renders the condition as its on= value ("" for CondAlways).
func (c PairCond) String() string {
	switch c {
	case CondTrue:
		return "true"
	case CondNilErr:
		return "nilerr"
	}
	return ""
}

// PairEffect is one parsed acquire/release/transfer annotation.
type PairEffect struct {
	Kind     PairKind
	Resource string
	Cond     PairCond
}

// PairWaiver is one parsed //insane:unbalanced annotation.
type PairWaiver struct {
	Resource string
	Reason   string
}

// PairDirectives is the parse result of the pair markers on one
// function declaration.
type PairDirectives struct {
	Effects []PairEffect
	Waivers []PairWaiver
}

// The option grammars of the pair markers. A release is unconditional,
// so its grammar knows on= only to say so.
var (
	resourceKey    = optKey{name: "resource", hint: "<name>"}
	effectGrammar  = grammar{resourceKey, {name: "on", optional: true, enum: []string{"true", "nilerr"}}}
	releaseGrammar = grammar{resourceKey, {name: "on", reject: "release effects are unconditional (drop on=)"}}
	waiverGrammar  = grammar{resourceKey, {name: "by", hint: "<reason>", tail: true}}
)

// ParsePairDecl extracts the pair annotations from a declaration's doc
// comment group, returning malformed ones as problems.
func ParsePairDecl(doc *ast.CommentGroup) (PairDirectives, []Problem) {
	var d PairDirectives
	var probs []Problem
	if doc == nil {
		return d, nil
	}
	markers := []struct {
		marker string
		g      grammar
		kind   PairKind // of the effect; unused for the waiver
	}{
		{acquireMarker, effectGrammar, PairAcquire},
		{releaseMarker, releaseGrammar, PairRelease},
		{transferMarker, effectGrammar, PairTransfer},
		{unbalancedMarker, waiverGrammar, 0},
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		for _, m := range markers {
			if !matchesMarker(text, m.marker) {
				continue
			}
			vals, bad := m.g.parse(strings.TrimPrefix(text, m.marker))
			switch {
			case bad != "":
				probs = append(probs, Problem{Pos: c.Pos(), Msg: m.marker + ": " + bad})
			case m.marker == unbalancedMarker:
				d.Waivers = append(d.Waivers, PairWaiver{Resource: vals["resource"], Reason: vals["by"]})
			default:
				e := PairEffect{Kind: m.kind, Resource: vals["resource"]}
				switch vals["on"] {
				case "true":
					e.Cond = CondTrue
				case "nilerr":
					e.Cond = CondNilErr
				}
				d.Effects = append(d.Effects, e)
			}
		}
	}
	return d, probs
}
