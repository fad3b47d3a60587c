package guardcheck

// The shared-state regime registry (DESIGN.md §14). A struct marked
// //insane:shared declares that its instances are accessed by more than one
// goroutine; every field then names its synchronization regime with an
// //insane:guardedby spec (parsed by internal/lint/directive). exportRegimes
// turns those declarations into per-field Regime facts that travel the
// whole-program dependency closure, so an access in any package resolves
// the regime of a field declared in another.

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/callutil"
	"github.com/insane-mw/insane/internal/lint/directive"
)

// Regime is the fact attached to every field of an //insane:shared
// struct: its declared synchronization regime.
type Regime struct {
	R directive.Regime
	// Struct is the declaring struct's name, for diagnostics.
	Struct string
}

// AFact marks Regime as an analysis fact.
func (*Regime) AFact() {}

// sharedField is one field of a shared struct, as seen by the exporting
// pass.
type sharedField struct {
	// Var is the field object (nil for embedded fields, which are
	// reported as problems instead).
	Var *types.Var
	// Name is the field name.
	Name string
	// Pos locates the field declaration.
	Pos token.Pos
	// Regime is the parsed spec; only meaningful when HasSpec.
	Regime directive.Regime
	// HasSpec reports whether an //insane:guardedby marker was present.
	HasSpec bool
	// Exempt reports a sync-primitive field (Mutex, RWMutex, WaitGroup,
	// Once), which needs no spec: it is the regimes' own machinery.
	Exempt bool
}

// sharedStruct is one //insane:shared struct declared in the pass's
// package.
type sharedStruct struct {
	// Name is the type name.
	Name string
	// Obj is the type-name object.
	Obj types.Object
	// Spec is the declaring TypeSpec.
	Spec *ast.TypeSpec
	// Fields lists the struct's fields in declaration order.
	Fields []sharedField
}

// exportRegimes parses the shared-struct annotations of every type declared in
// the pass's package, exports a Regime fact for each annotated field,
// and returns the shared structs plus any malformed annotations
// (missing specs, specs on sync primitives, markers outside shared
// structs). Call it before walking bodies, so same-package accesses
// resolve their regimes exactly like cross-package ones.
func exportRegimes(pass *analysis.Pass) ([]sharedStruct, []directive.Problem) {
	var structs []sharedStruct
	var probs []directive.Problem
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					if directive.HasShared(doc) {
						probs = append(probs, directive.Problem{Pos: ts.Pos(), Msg: "//insane:shared: " + ts.Name.Name + " is not a struct type"})
					}
					continue
				}
				if !directive.HasShared(doc) {
					// Stray field markers outside a shared struct are
					// dead annotations: report them so the registry
					// cannot silently rot.
					for _, f := range st.Fields.List {
						if _, has, _ := directive.ParseGuardedBy(f.Doc, f.Comment); has {
							probs = append(probs, directive.Problem{Pos: f.Pos(), Msg: "//insane:guardedby on a field of " + ts.Name.Name + ", which is not marked //insane:shared"})
						}
					}
					continue
				}
				s := sharedStruct{Name: ts.Name.Name, Obj: pass.TypesInfo.Defs[ts.Name], Spec: ts}
				for _, f := range st.Fields.List {
					if len(f.Names) == 0 {
						probs = append(probs, directive.Problem{Pos: f.Pos(), Msg: "embedded field in //insane:shared struct " + s.Name + ": name it and declare its regime"})
						continue
					}
					regime, has, ps := directive.ParseGuardedBy(f.Doc, f.Comment)
					probs = append(probs, ps...)
					malformed := len(ps) > 0
					for _, name := range f.Names {
						v, _ := pass.TypesInfo.Defs[name].(*types.Var)
						fld := sharedField{Var: v, Name: name.Name, Pos: name.Pos(), Regime: regime, HasSpec: has && !malformed}
						if v != nil && exemptType(v.Type()) {
							fld.Exempt = true
							if has {
								probs = append(probs, directive.Problem{Pos: name.Pos(), Msg: "field " + s.Name + "." + name.Name + " is a sync primitive and needs no //insane:guardedby"})
							}
						} else if !has && !malformed {
							probs = append(probs, directive.Problem{Pos: name.Pos(), Msg: "field " + s.Name + "." + name.Name + " of //insane:shared struct has no //insane:guardedby spec"})
						}
						if fld.HasSpec && !fld.Exempt && v != nil {
							pass.ExportObjectFact(v, &Regime{R: regime, Struct: s.Name})
						}
						s.Fields = append(s.Fields, fld)
					}
				}
				structs = append(structs, s)
			}
		}
	}
	return structs, probs
}

// lookupRegime returns the declared regime of a field, whether declared in
// this package (exported earlier in the same pass) or imported through
// the fact store.
func lookupRegime(pass *analysis.Pass, v *types.Var) (Regime, bool) {
	if v == nil {
		return Regime{}, false
	}
	var r Regime
	if pass.ImportObjectFact(v, &r) {
		return r, true
	}
	return Regime{}, false
}

// exemptType reports a sync primitive: the machinery a regime is built
// from rather than data needing one.
func exemptType(t types.Type) bool {
	return callutil.IsNamed(callutil.Deref(t), "sync", "Mutex", "RWMutex", "WaitGroup", "Once")
}
