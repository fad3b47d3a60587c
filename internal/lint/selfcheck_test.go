package lint_test

import (
	"strings"
	"testing"

	"github.com/insane-mw/insane/internal/lint"
	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/hotpathcheck"
	"github.com/insane-mw/insane/internal/lint/loader"
)

// TestRepositoryIsClean runs the full insanevet suite over the whole
// module, exactly as `make lint` does: the tree must stay free of
// ownership, lock-order, atomicity, timebase, hot-path,
// sentinel-comparison, goroutine-lifecycle, sync-misuse, layering,
// resource-balance and shared-state violations (or carry explicit
// //lint:ignore directives). It also asserts every whole-program
// analyzer of the suite (each one declaring FactTypes) really covered
// the module's dependency closure — a suite that silently analyzed
// nothing would pass otherwise.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	ldr, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ldr.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 30 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	findings, info, err := lint.RunWithInfo(ldr, pkgs, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}

	if info.ClosurePackages < 30 {
		t.Errorf("whole-program closure covered only %d packages (want >= 30)", info.ClosurePackages)
	}
	for _, a := range lint.Analyzers() {
		if len(a.FactTypes) == 0 {
			continue
		}
		if n := info.WholeProgram[a.Name]; n < 30 {
			t.Errorf("whole-program analyzer %s ran over %d packages (want >= 30)", a.Name, n)
		}
	}
}

// TestHotPathIsProven runs hotpathcheck alone over the module and
// additionally asserts that the //insane:hotpath annotation set has
// not silently shrunk: the zero-alloc and work-bound proof is only as
// strong as its roots (Emit admission, scheduler push/pop, the poller
// loop, Consume, mempool and ringbuf ops, telemetry records).
func TestHotPathIsProven(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	ldr, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ldr.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(ldr, pkgs, []*analysis.Analyzer{hotpathcheck.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}

	roots := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					if text == "//insane:hotpath" || strings.HasPrefix(text, "//insane:hotpath ") {
						roots++
					}
				}
			}
		}
	}
	if roots < 65 {
		t.Errorf("only %d //insane:hotpath annotations in the tree; the proof's root set has shrunk (want >= 65)", roots)
	}
}

// TestWorkBoundWaiversAreAlive asserts the //insane:bounded waiver set
// has not silently shrunk: hotpathcheck verifies each one (malformed,
// unattached or redundant annotations are findings), so a healthy count
// here means the runtime's unprovable loops all carry live, checked
// justifications rather than having been deleted along with their
// loops' proofs.
func TestWorkBoundWaiversAreAlive(t *testing.T) {
	if testing.Short() {
		t.Skip("parses the entire module")
	}
	ldr, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ldr.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	waivers := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(strings.TrimSpace(c.Text), "//insane:bounded ") {
						waivers++
					}
				}
			}
		}
	}
	if waivers < 40 {
		t.Errorf("only %d //insane:bounded annotations in the tree; the work-bound waiver set has shrunk (want >= 40)", waivers)
	}
}

// TestGuardRegistryIsAlive asserts two invariants of the guardcheck
// shared-state registry (DESIGN.md §14). First, the annotation set has
// not silently shrunk: every //insane:shared struct and per-field
// //insane:guardedby spec is a root of the synchronization-regime
// proof, so a healthy count means the proof still covers the runtime's
// cross-goroutine state. Second, the //insane:unguarded waiver count
// stays at zero: a waiver is an unproven synchronization claim, and
// every regime in the tree is currently proven — any waiver appearing
// means a data-race hole is being waved through instead of fixed.
func TestGuardRegistryIsAlive(t *testing.T) {
	if testing.Short() {
		t.Skip("parses the entire module")
	}
	ldr, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ldr.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	shared, specs, waivers := 0, 0, 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					switch {
					case text == "//insane:shared":
						shared++
					case strings.HasPrefix(text, "//insane:guardedby "):
						specs++
					case text == "//insane:unguarded" || strings.HasPrefix(text, "//insane:unguarded "):
						waivers++
					}
				}
			}
		}
	}
	if shared < 21 {
		t.Errorf("only %d //insane:shared structs in the tree; the shared-state registry has shrunk (want >= 21)", shared)
	}
	if specs < 116 {
		t.Errorf("only %d //insane:guardedby specs in the tree; the regime proof's root set has shrunk (want >= 116)", specs)
	}
	if waivers > 0 {
		t.Errorf("%d //insane:unguarded waivers in the tree (ceiling 0); prove the regime instead of waiving it", waivers)
	}
}

// TestResourceRegistryIsAlive asserts two invariants of the paircheck
// resource registry (DESIGN.md §13). First, the annotation set has not
// silently shrunk: every charge/refund and get/put pair the balance
// proof covers is rooted in an //insane:acquire, //insane:release or
// //insane:transfer comment, so a healthy count means the proof still
// has teeth. Second, the //insane:unbalanced waiver count stays at a
// hard ceiling: a waiver is an unproven ownership claim, and the tree
// currently needs none — any growth past the ceiling means balance
// holes are being waved through instead of fixed.
func TestResourceRegistryIsAlive(t *testing.T) {
	if testing.Short() {
		t.Skip("parses the entire module")
	}
	ldr, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ldr.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	pairs, waivers := 0, 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					switch {
					case strings.HasPrefix(text, "//insane:acquire"),
						strings.HasPrefix(text, "//insane:release"),
						strings.HasPrefix(text, "//insane:transfer"):
						pairs++
					case strings.HasPrefix(text, "//insane:unbalanced"):
						waivers++
					}
				}
			}
		}
	}
	if pairs < 31 {
		t.Errorf("only %d //insane:{acquire,release,transfer} annotations in the tree; the resource registry has shrunk (want >= 31)", pairs)
	}
	if waivers > 3 {
		t.Errorf("%d //insane:unbalanced waivers in the tree (ceiling 3); prove the balance instead of waiving it", waivers)
	}
}
