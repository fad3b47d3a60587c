// Package analysistest runs one analyzer over a testdata source tree
// and checks its diagnostics against `// want` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest for the offline analysis
// subset under internal/lint/analysis.
//
// Expectations are written on the offending line:
//
//	s.Emit(b, 1)
//	_ = b.Payload // want `used after Emit`
//
// Each `// want` comment carries one or more quoted or backquoted
// regular expressions; every expectation must be matched by a
// diagnostic on its line and every diagnostic must be matched by an
// expectation. Suppression directives are honored exactly as in the
// insanevet driver, so a `//lint:ignore insanevet/<rule> reason` line
// with no `want` proves the suppression path works.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/insane-mw/insane/internal/lint/analysis"
	"github.com/insane-mw/insane/internal/lint/directive"
	"github.com/insane-mw/insane/internal/lint/loader"
)

// wantRe extracts the quoted expectations of a want comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run applies the analyzer to each package under testdata/src and
// reports mismatches through t.
//
// For a whole-program analyzer (non-empty FactTypes) each named
// package is analyzed together with its in-tree dependency closure,
// dependencies first, sharing one fact store — and `// want`
// expectations are honored in the dependency files too, so fixtures
// can assert on diagnostics whose call chain crosses packages.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	src := filepath.Join(testdata, "src")
	ldr := loader.NewAt(src, "")
	for _, path := range pkgPaths {
		pkg, err := ldr.LoadDir(filepath.Join(src, filepath.FromSlash(path)), path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		if len(a.FactTypes) == 0 {
			check(t, []*loader.Package{pkg}, a, nil)
			continue
		}
		check(t, ldr.Closure(pkg), a, analysis.NewFactStore())
	}
}

// expectation is one `// want` pattern awaiting a diagnostic.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// check runs the analyzer over the packages (dependencies first for
// whole-program analyzers) and matches diagnostics against the `want`
// expectations collected from every file involved.
func check(t *testing.T, pkgs []*loader.Package, a *analysis.Analyzer, store *analysis.FactStore) {
	t.Helper()
	var expects []*expectation
	var diags []analysis.Diagnostic
	var fset = pkgs[0].Fset
	for _, pkg := range pkgs {
		expects = append(expects, collectWants(t, pkg)...)
	}
	for _, pkg := range pkgs {
		idx := directive.NewIndex(pkg.Fset, pkg.Files)
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if idx.Suppresses(pos, a.Name) {
					return
				}
				diags = append(diags, d)
			},
		}
		if store != nil {
			store.Bind(pass)
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, e := range expects {
			if e.file == pos.Filename && e.line == pos.Line && !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", e.file, e.line, e.raw)
		}
	}
}

// collectWants parses the `// want` comments of the package.
func collectWants(t *testing.T, pkg *loader.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRe.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: malformed want comment: %s", pos, c.Text)
				}
				for _, m := range ms {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, raw, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return out
}
