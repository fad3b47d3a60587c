// Package lint assembles the insanevet analyzer suite and runs it over
// loaded packages, applying the `//lint:ignore insanevet/<rule>`
// suppression directives.
//
// The suite enforces the conventions the compiler cannot check but the
// INSANE runtime depends on (see README, "Static analysis"):
//
//	bufownership    — no touching zero-copy buffers after Emit/Abort, no
//	                  Message use after Release (§5.1 slot pools)
//	lockorder       — mu→schedMu acquisition order, locks never escape
//	                  their function, whole-program lock graph is
//	                  cycle-free (§5.3 polling threads)
//	atomicfield     — no copies of atomic fields, no mixed plain/atomic
//	                  access to counters
//	timebase        — datapath packages read time via internal/timebase
//	hotpathcheck    — code reachable from //insane:hotpath roots is
//	                  allocation- and blocking-free (§7 zero-alloc proof)
//	sentinelcompare — errors wrapped with %w are matched with errors.Is
//	goroutinecheck  — every go statement is provably bounded or carries
//	                  a verified //insane:goroutine owner/stop annotation
//	syncmisuse      — no double close, send after close, or WaitGroup
//	                  paths that race or miss Done
//	archcheck       — imports respect the layering declared in
//	                  ARCH.layers: no upward, same-layer or unlisted
//	                  cross-layer edges (DESIGN.md §10)
//	boundedcheck    — every loop reachable from an //insane:hotpath root
//	                  is provably bounded or carries a verified
//	                  //insane:bounded annotation (§7 per-packet cost)
//	paircheck       — every //insane:acquire resource has a matching
//	                  release, transfer or verified waiver on every
//	                  control-flow path (§5.1/§6 charge-refund balance)
//	guardcheck      — every access to a field of an //insane:shared
//	                  struct uses its declared //insane:guardedby
//	                  regime: mutex-held, atomic, RCU-published,
//	                  goroutine-confined or immutable (DESIGN.md §14)
//
// Analyzers that declare FactTypes are whole-program: Run applies them
// over the full in-module dependency closure of the requested
// packages, dependencies first, with a shared analysis.FactStore, so
// per-function summaries computed for internal/ringbuf are available
// when internal/core is analyzed.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/archcheck"
	"github.com/insane-mw/insane/internal/lint/atomicfield"
	"github.com/insane-mw/insane/internal/lint/boundedcheck"
	"github.com/insane-mw/insane/internal/lint/bufownership"
	"github.com/insane-mw/insane/internal/lint/concurrencycheck"
	"github.com/insane-mw/insane/internal/lint/directive"
	"github.com/insane-mw/insane/internal/lint/guardcheck"
	"github.com/insane-mw/insane/internal/lint/hotpathcheck"
	"github.com/insane-mw/insane/internal/lint/loader"
	"github.com/insane-mw/insane/internal/lint/lockorder"
	"github.com/insane-mw/insane/internal/lint/paircheck"
	"github.com/insane-mw/insane/internal/lint/sentinelcompare"
	"github.com/insane-mw/insane/internal/lint/timebasecheck"
)

// Analyzers returns the full insanevet suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		bufownership.Analyzer,
		lockorder.Analyzer,
		atomicfield.Analyzer,
		timebasecheck.Analyzer,
		hotpathcheck.Analyzer,
		sentinelcompare.Analyzer,
		concurrencycheck.Goroutine,
		concurrencycheck.Sync,
		archcheck.Analyzer,
		boundedcheck.Analyzer,
		paircheck.Analyzer,
		guardcheck.Analyzer,
	}
}

// Finding is one unsuppressed diagnostic.
type Finding struct {
	// Analyzer names the rule ("bufownership", ..., or "directive" for
	// malformed suppression comments).
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message states the problem.
	Message string
}

// String formats the finding in the file:line:col style of go vet.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (insanevet/%s)", f.Pos, f.Message, f.Analyzer)
}

// Info describes what a Run actually covered, so callers (the repo
// self-check in particular) can assert the suite really ran instead of
// silently analyzing nothing.
type Info struct {
	// Packages is the number of requested packages.
	Packages int
	// ClosurePackages is the size of the in-module dependency closure
	// the whole-program analyzers ran over (0 when none was needed).
	ClosurePackages int
	// WholeProgram maps each whole-program analyzer name to the number
	// of packages it analyzed.
	WholeProgram map[string]int
}

// Run applies the analyzers to every package and returns the findings
// that survive suppression, sorted by position.
//
// The loader must be the one that loaded pkgs: whole-program analyzers
// (non-empty FactTypes) reach the in-module dependency closure through
// it. It may be nil when no analyzer declares facts.
func Run(ldr *loader.Loader, pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	findings, _, err := RunWithInfo(ldr, pkgs, analyzers)
	return findings, err
}

// RunWithInfo is Run plus coverage accounting.
func RunWithInfo(ldr *loader.Loader, pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, Info, error) {
	info := Info{Packages: len(pkgs), WholeProgram: make(map[string]int)}
	var plain, whole []*analysis.Analyzer
	for _, a := range analyzers {
		if len(a.FactTypes) > 0 {
			whole = append(whole, a)
		} else {
			plain = append(plain, a)
		}
	}

	var out []Finding
	indexes := make(map[*loader.Package]*directive.Index)
	index := func(pkg *loader.Package) *directive.Index {
		idx := indexes[pkg]
		if idx == nil {
			idx = directive.NewIndex(pkg.Fset, pkg.Files)
			indexes[pkg] = idx
		}
		return idx
	}
	runOne := func(pkg *loader.Package, a *analysis.Analyzer, store *analysis.FactStore) error {
		idx := index(pkg)
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if store != nil {
			store.Bind(pass)
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if idx.Suppresses(pos, name) {
				return
			}
			out = append(out, Finding{Analyzer: name, Pos: pos, Message: d.Message})
		}
		if _, err := a.Run(pass); err != nil {
			return fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
		return nil
	}

	for _, pkg := range pkgs {
		for _, ig := range index(pkg).Malformed() {
			out = append(out, Finding{
				Analyzer: "directive",
				Pos:      pkg.Fset.Position(ig.Pos),
				Message:  "malformed //lint:ignore directive: " + ig.Malformed,
			})
		}
		for _, a := range plain {
			if err := runOne(pkg, a, nil); err != nil {
				return nil, info, err
			}
		}
	}

	if len(whole) > 0 {
		if ldr == nil {
			return nil, info, fmt.Errorf("lint: a whole-program analyzer requires a loader")
		}
		closure := ldr.Closure(pkgs...)
		info.ClosurePackages = len(closure)
		for _, a := range whole {
			store := analysis.NewFactStore()
			for _, pkg := range closure {
				if err := runOne(pkg, a, store); err != nil {
					return nil, info, err
				}
				info.WholeProgram[a.Name]++
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return out, info, nil
}
