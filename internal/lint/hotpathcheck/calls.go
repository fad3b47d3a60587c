package hotpathcheck

import (
	"go/ast"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/callutil"
)

// visitCall classifies one call expression: conversion, builtin,
// module-internal edge, trusted boundary, allowlisted stdlib, or a
// flagged op.
func (s *scanner) visitCall(call *ast.CallExpr) {
	info := s.pass.TypesInfo

	// Type conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		dst := tv.Type
		src := info.TypeOf(call.Args[0])
		switch {
		case boxes(dst, src):
			s.flag(call.Pos(), SevAlloc, "conversion "+exprText(call)+" boxes into an interface")
		case isString(dst) && src != nil && isSliceType(src):
			s.flag(call.Pos(), SevAlloc, "conversion "+exprText(call)+" copies to a new string")
		case isSliceType(dst) && isString(src):
			s.flag(call.Pos(), SevAlloc, "conversion "+exprText(call)+" copies to a new slice")
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				s.appends = append(s.appends, call)
			case "cap":
				s.hasCap = true
			case "make":
				s.flag(call.Pos(), SevAlloc, exprText(call)+" allocates")
			case "new":
				s.flag(call.Pos(), SevAlloc, exprText(call)+" allocates")
			}
			return
		}
	}

	callee := callutil.StaticCallee(info, call)
	if callee == nil {
		s.flag(call.Pos(), SevUnknown, "dynamic call "+exprText(call)+" cannot be proven allocation-free")
		return
	}

	// Interface method calls resolve at runtime; only annotated
	// (trusted) methods and context.Context are accepted.
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		var sum Summary
		if s.pass.ImportObjectFact(callee.Origin(), &sum) && sum.Trusted {
			s.boxedArgs(call)
			return
		}
		if callee.Pkg() != nil && callee.Pkg().Path() == "context" {
			s.boxedArgs(call)
			return
		}
		s.flag(call.Pos(), SevUnknown, "call through unannotated interface method "+callee.Name()+" cannot be proven allocation-free")
		return
	}

	origin := callee.Origin()
	pkg := origin.Pkg()
	if pkg == nil {
		return // universe-scoped (error.Error is handled above)
	}

	// Module-internal: record a call edge; the traversal follows it
	// through the callee's exported fact.
	if pkg == s.pass.Pkg || s.hasSummary(origin) {
		if !s.seen[origin] {
			s.seen[origin] = true
			s.sum.Calls = append(s.sum.Calls, Call{Fn: origin, Pos: call.Pos()})
		}
		s.boxedArgs(call)
		return
	}

	// Standard library.
	full := origin.FullName()
	path := pkg.Path()
	switch {
	case path == "fmt" || path == "reflect":
		s.flag(call.Pos(), SevAlloc, "call to "+full+" allocates (fmt/reflection)")
	case blockFuncs[full]:
		s.flag(call.Pos(), SevBlock, "call to "+full+" blocks")
	case allocFuncs[full]:
		s.flag(call.Pos(), SevAlloc, "call to "+full+" allocates")
	case allowFuncs[full] || allowPkgs[path]:
		s.boxedArgs(call)
	default:
		s.flag(call.Pos(), SevUnknown, "call to "+full+" is outside the hot-path allowlist")
	}
}

// hasSummary reports whether a Summary fact was exported for fn (true
// for every function of an already-analyzed module package).
func (s *scanner) hasSummary(fn *types.Func) bool {
	var sum Summary
	return s.pass.ImportObjectFact(fn, &sum)
}

// boxedArgs flags arguments boxed into interface parameters of an
// otherwise-clean call.
func (s *scanner) boxedArgs(call *ast.CallExpr) {
	sig, ok := s.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var dst types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			sl, ok := last.Underlying().(*types.Slice)
			if !ok {
				continue
			}
			dst = sl.Elem()
		case i < params.Len():
			dst = params.At(i).Type()
		default:
			continue
		}
		if boxes(dst, s.pass.TypesInfo.TypeOf(arg)) {
			s.flag(arg.Pos(), SevAlloc, "argument "+exprText(arg)+" is boxed into interface parameter "+typeText(dst))
		}
	}
}

// isSliceType reports whether t's underlying type is a slice.
func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// The hot-path stdlib contract. Packages listed in allowPkgs are clean
// wholesale; individual functions are classified by their FullName.
// Overrides (blockFuncs/allocFuncs) are consulted before allowPkgs, so
// reflection-based entry points of otherwise-clean packages stay
// flagged. Anything else in the standard library is an unknown-call:
// hot code has no business there, and a too-eager allowlist would
// quietly erode the proof.
var allowPkgs = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
	"unsafe":      true,
	// ByteOrder put/get helpers compile to direct loads and stores;
	// binary.Read/Write/Size are reflection-based and overridden below.
	"encoding/binary": true,
}

var allowFuncs = map[string]bool{
	"(*sync.Mutex).Unlock":    true,
	"(*sync.Mutex).TryLock":   true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RUnlock": true,
	"(*sync.RWMutex).TryLock": true,
	"(*sync.Pool).Get":        true,
	"(*sync.Pool).Put":        true,
	"(*sync.WaitGroup).Add":   true,
	"(*sync.WaitGroup).Done":  true,
	"(*sync.Cond).Signal":     true,
	"(*sync.Cond).Broadcast":  true,

	"time.Now":                     true, // timebasecheck governs who may call it
	"time.Since":                   true,
	"time.Until":                   true,
	"(time.Time).Sub":              true,
	"(time.Time).Add":              true,
	"(time.Time).Before":           true,
	"(time.Time).After":            true,
	"(time.Time).Compare":          true,
	"(time.Time).Equal":            true,
	"(time.Time).IsZero":           true,
	"(time.Time).Unix":             true,
	"(time.Time).UnixNano":         true,
	"(time.Duration).Nanoseconds":  true,
	"(time.Duration).Microseconds": true,
	"(time.Duration).Milliseconds": true,
	"(time.Duration).Seconds":      true,
	"(*time.Timer).Stop":           true,
	"(*time.Timer).Reset":          true,

	"errors.Is": true,
}

var blockFuncs = map[string]bool{
	"(*sync.Mutex).Lock":     true,
	"(*sync.RWMutex).Lock":   true,
	"(*sync.RWMutex).RLock":  true,
	"(*sync.WaitGroup).Wait": true,
	"(*sync.Cond).Wait":      true,
	"(*sync.Once).Do":        true,
	"time.Sleep":             true,
	"runtime.Gosched":        true,
}

var allocFuncs = map[string]bool{
	"time.NewTimer":          true,
	"time.NewTicker":         true,
	"time.After":             true,
	"time.Tick":              true,
	"time.AfterFunc":         true,
	"errors.New":             true,
	"errors.As":              true,
	"encoding/binary.Read":   true,
	"encoding/binary.Write":  true,
	"encoding/binary.Size":   true,
	"(time.Duration).String": true,
	"(time.Time).String":     true,
}
