package hotpathcheck_test

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/analysistest"
	"github.com/insane-mw/insane/internal/lint/hotpathcheck"
	"github.com/insane-mw/insane/internal/lint/loader"
)

// TestHotPathCheck covers every alloc, block and unknown-call class in
// package a and the cross-package chain (root in b, violation in
// b/dep) via the fact closure.
func TestHotPathCheck(t *testing.T) {
	analysistest.Run(t, "testdata", hotpathcheck.Analyzer, "a", "b")
}

// TestBoundedCheck covers every loop diagnostic class and recursion in
// package a and the cross-package fact flow (constant bound imported
// from dep, unproven loop in dep reported with the chain from b's
// root).
func TestBoundedCheck(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "bounded"), hotpathcheck.Analyzer, "a", "b")
}

// TestMalformedDirectives drives the analyzer by hand over the
// baddirective fixture: the diagnostics land on the directive comments
// themselves, where a trailing `// want` comment would be swallowed
// into the directive text, so analysistest cannot express them.
func TestMalformedDirectives(t *testing.T) {
	expectByHand(t, "testdata", "baddirective",
		`unknown //insane:hotpath option "allow=spin"`,
		"//insane:coldpath directive missing a reason",
	)
}

// TestAnnotationDiagnostics drives the analyzer by hand over the
// badannot fixture, for the same reason: the diagnostics land on the
// //insane:bounded comments themselves.
func TestAnnotationDiagnostics(t *testing.T) {
	expectByHand(t, filepath.Join("testdata", "bounded"), "badannot",
		"//insane:bounded annotation is redundant: the loop is provably bounded",
		"//insane:bounded annotation is not attached to a for or range statement",
		"malformed //insane:bounded annotation: missing by=<reason>",
		"malformed //insane:bounded annotation: option cap=8 is not by=<reason>",
		"the slice length is not fence-checked against a constant cap [unbounded] in hot-path root missingBy",
		"the slice length is not fence-checked against a constant cap [unbounded] in hot-path root wrongOption",
	)
}

// expectByHand runs the analyzer over the fixture package pkg under
// testdata/src and checks it reports exactly one diagnostic containing
// each of wants.
func expectByHand(t *testing.T, testdata, pkgPath string, wants ...string) {
	t.Helper()
	src := filepath.Join(testdata, "src")
	pkg, err := loader.NewAt(src, "").LoadDir(filepath.Join(src, pkgPath), pkgPath)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var got []string
	pass := &analysis.Pass{
		Analyzer:  hotpathcheck.Analyzer,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { got = append(got, d.Message) },
	}
	analysis.NewFactStore().Bind(pass)
	if _, err := hotpathcheck.Analyzer.Run(pass); err != nil {
		t.Fatalf("run: %v", err)
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
