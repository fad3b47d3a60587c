package loader_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/insane-mw/insane/internal/lint/loader"
)

func TestLoadModulePackage(t *testing.T) {
	ldr, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	if ldr.Module != "github.com/insane-mw/insane" {
		t.Fatalf("module path = %q", ldr.Module)
	}
	pkgs, err := ldr.Load("./internal/timebase")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Types == nil || pkg.Types.Name() != "timebase" {
		t.Fatalf("type-checked package missing or misnamed: %+v", pkg.Types)
	}
	if pkg.Types.Scope().Lookup("Wall") == nil {
		t.Error("timebase.Wall not found in the loaded package scope")
	}
	if len(pkg.Info.Uses) == 0 {
		t.Error("type info not populated")
	}
}

func TestLoadSubtreeResolvesInternalImports(t *testing.T) {
	ldr, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	// internal/sched imports internal/datapath and internal/timebase;
	// loading it exercises the module-internal importer path.
	pkgs, err := ldr.Load("./internal/sched")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "github.com/insane-mw/insane/internal/sched" {
		t.Fatalf("unexpected packages: %+v", pkgs)
	}
}

func TestWalkSkipsTestdata(t *testing.T) {
	ldr, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ldr.Load("./internal/lint/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("testdata package loaded: %s", p.Path)
		}
	}
	if len(pkgs) < 8 {
		t.Errorf("expected the full lint subtree, got %d packages", len(pkgs))
	}
}

// TestWalkSkipsNestedModules: a subdirectory with its own go.mod is
// another module, not part of ./... — its packages (here one that does
// not even type-check against this module) are neither loaded nor
// reported as unloadable.
func TestWalkSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/outer\n\ngo 1.22\n")
	write("a/a.go", "package a\n\nfunc A() {}\n")
	write("nested/go.mod", "module example.com/nested\n\ngo 1.22\n")
	write("nested/n.go", "package nested\n\nimport \"example.com/nested/missing\"\n\nvar _ = missing.X\n")
	write("nested/deep/d.go", "package deep\n")

	ldr, err := loader.New(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, skipped, err := ldr.LoadAll("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "example.com/outer/a" {
		t.Errorf("loaded %v, want only example.com/outer/a", pkgs)
	}
	if len(skipped) != 0 {
		t.Errorf("nested module reported as unloadable: %v", skipped)
	}
}
