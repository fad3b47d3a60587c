package paircheck_test

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/analysistest"
	"github.com/insane-mw/insane/internal/lint/loader"
	"github.com/insane-mw/insane/internal/lint/paircheck"
)

// TestPairCheck covers every path-sensitive diagnostic class in
// package a and the cross-package fact transfer in pairuse (whose
// annotated primitives live in pairdep).
func TestPairCheck(t *testing.T) {
	analysistest.Run(t, "testdata", paircheck.Analyzer, "a", "pairuse")
}

// TestBufOwnership covers the kill set: the uses of a buffer or
// message after release or transfer in own.
func TestBufOwnership(t *testing.T) {
	analysistest.Run(t, "testdata", paircheck.Analyzer, "own")
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
		Analyzer:  paircheck.Analyzer,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { got = append(got, d.Message) },
	}
	analysis.NewFactStore().Bind(pass)
	if _, err := paircheck.Analyzer.Run(pass); err != nil {
		t.Fatalf("run: %v", err)
	}
	wants := []string{
		"//insane:acquire: missing resource=<name>",
		"//insane:acquire: unknown on= value maybe (only true and nilerr are recognized)",
		"//insane:release: release effects are unconditional (drop on=)",
		"//insane:transfer: option resource is not key=value",
		"//insane:acquire: empty value for resource=",
		"//insane:acquire: unknown key scope (only resource= and on= are recognized)",
		"//insane:unbalanced: missing by=<reason>",
		"//insane:unbalanced: resource=<name> must come first (the by= reason runs to end of line)",
		"//insane:unbalanced: empty reason after by=",
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
