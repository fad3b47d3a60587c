package guardcheck_test

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/analysistest"
	"github.com/insane-mw/insane/internal/lint/guardcheck"
	"github.com/insane-mw/insane/internal/lint/loader"
)

// TestGuardCheck covers every regime's violation and clean shape in
// package a, and the cross-package fact transfer in guse (whose
// annotated struct and *Locked method live in gdecl).
func TestGuardCheck(t *testing.T) {
	analysistest.Run(t, "testdata", guardcheck.Analyzer, "a", "guse")
}

// TestLockOrder covers the lock rules: the mu→schedMu order, locks that
// escape their function at a return or at its end, in order, and the
// whole-program cycle that closes only across the package boundary in
// cyc.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", guardcheck.Analyzer, "order", "cyc")
}

// TestMalformedDirectives drives the analyzer by hand over the
// baddirective fixture: the diagnostics land on the directive comments
// themselves, where a trailing `// want` comment would be swallowed
// into the directive text, so analysistest cannot express them.
func TestMalformedDirectives(t *testing.T) {
	ldr := loader.NewAt(filepath.Join("testdata", "src"), "")
	pkg, err := ldr.LoadDir(filepath.Join("testdata", "src", "baddirective"), "baddirective")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var got []string
	pass := &analysis.Pass{
		Analyzer:  guardcheck.Analyzer,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { got = append(got, d.Message) },
	}
	analysis.NewFactStore().Bind(pass)
	if _, err := guardcheck.Analyzer.Run(pass); err != nil {
		t.Fatalf("run: %v", err)
	}
	wants := []string{
		"embedded field in //insane:shared struct B: name it and declare its regime",
		"field B.mu is a sync primitive and needs no //insane:guardedby",
		"//insane:guardedby: missing regime",
		"//insane:guardedby: empty value for mu=",
		"//insane:guardedby: unknown regime banana",
		"field B.e of //insane:shared struct has no //insane:guardedby spec",
		"//insane:guardedby: atomic takes no options",
		"//insane:guardedby: confined needs exactly owner=<func>",
		"//insane:shared: NotAStruct is not a struct type",
		"//insane:guardedby on a field of Plain, which is not marked //insane:shared",
		"//insane:guardedby mu=nosuch on B.d: B has no field nosuch",
		"//insane:guardedby confined owner=nobody on B.f: nobody names no function in this package",
		"//insane:guardedby immutable after=ghost on B.g: ghost names no function in this package",
		"//insane:guardedby rcu=phantom on B.h: phantom names no function in this package",
		"//insane:guardedby mu=a on B.i: B.a is not a sync.Mutex or sync.RWMutex",
		"//insane:guardedby confined owner=helper on B.j: helper is never spawned with a go statement",
		"//insane:unguarded: missing reason",
		"stale //insane:unguarded waiver: no regime finding on this or the next line",
	}
	for _, want := range wants {
		found := false
		for _, msg := range got {
			if strings.Contains(msg, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q; got %q", want, got)
		}
	}
	if len(got) != len(wants) {
		t.Errorf("got %d diagnostics, want %d: %q", len(got), len(wants), got)
	}
}
