package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/insane-mw/insane/internal/lint"
	"github.com/insane-mw/insane/internal/lint/multichecker"
)

// TestListAnalyzers holds the README's rule table to the suite: the
// first-column names of its "Static analysis" table are exactly the
// names -list prints, so a new rule needs a row and a deleted rule's
// row goes with it.
func TestListAnalyzers(t *testing.T) {
	var out, errw bytes.Buffer
	code := multichecker.Run([]string{"-list"}, &out, &errw, lint.Analyzers()...)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errw.String())
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Static analysis\n")
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, line := range strings.Split(section, "\n") {
		if name, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ = strings.Cut(name, "`")
			documented = append(documented, name)
		}
	}
	slices.Sort(listed)
	slices.Sort(documented)
	if !slices.Equal(listed, documented) {
		t.Errorf("README \"Static analysis\" rules %q, -list prints %q", documented, listed)
	}
}

// TestIgnoreNamingNoRule: a waiver of a rule the suite does not have
// (a typo, or a retired rule) would waive nothing, so it is a finding
// of its own, also when -run selects other rules.
func TestIgnoreNamingNoRule(t *testing.T) {
	for _, rule := range []string{"bufownershp", "bufownership"} {
		t.Run(rule, func(t *testing.T) {
			dir := t.TempDir()
			src := "package p\n\n//lint:ignore insanevet/" + rule + " the waiver this test expects reported\nfunc F() {}\n"
			for name, data := range map[string]string{"go.mod": "module example.com/p\n\ngo 1.22\n", "p.go": src} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var out, errw bytes.Buffer
			code := multichecker.Run([]string{"-C", dir, "-run", "timebase", "./..."}, &out, &errw, lint.Analyzers()...)
			if code != 1 {
				t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
			}
			want := "insanevet/" + rule + " names no insanevet rule (insanevet/directive)"
			if !strings.Contains(out.String(), want) {
				t.Errorf("no finding %q in:\n%s", want, out.String())
			}
		})
	}
}

// dirtyFindings are the findings the dirty module must produce: one of
// each rule that proves a resource or a lock on every path.
var dirtyFindings = []struct{ analyzer, message string }{
	{"paircheck", "used after Emit"},
	{"guardcheck", "c.mu.Lock() has no matching Unlock"},
}

func TestDirtyModuleFails(t *testing.T) {
	var out, errw bytes.Buffer
	code := multichecker.Run([]string{"-C", "testdata/dirty", "./..."}, &out, &errw, lint.Analyzers()...)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	for _, want := range dirtyFindings {
		if !strings.Contains(out.String(), want.message) || !strings.Contains(out.String(), "(insanevet/"+want.analyzer+")") {
			t.Errorf("expected a %s finding %q, got:\n%s", want.analyzer, want.message, out.String())
		}
	}
}

// TestJSONOutput checks the -json wire form CI consumes: a parseable
// array whose entries carry analyzer, position and message.
func TestJSONOutput(t *testing.T) {
	var out, errw bytes.Buffer
	code := multichecker.Run([]string{"-C", "testdata/dirty", "-json", "./..."}, &out, &errw, lint.Analyzers()...)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	type finding struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Message  string `json:"message"`
	}
	var findings []finding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json produced an empty array for a dirty module")
	}
	for _, f := range findings {
		if f.Analyzer == "" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("finding missing fields: %+v", f)
		}
	}
	for _, want := range dirtyFindings {
		if !slices.ContainsFunc(findings, func(f finding) bool {
			return f.Analyzer == want.analyzer && strings.Contains(f.Message, want.message)
		}) {
			t.Errorf("-json has no %s finding %q: %+v", want.analyzer, want.message, findings)
		}
	}
}

// TestBrokenModuleSkipsAndFails: a package that cannot be type-checked
// was never analyzed, so the driver must name it and exit 2.
func TestBrokenModuleSkipsAndFails(t *testing.T) {
	var out, errw bytes.Buffer
	code := multichecker.Run([]string{"-C", "testdata/broken", "./..."}, &out, &errw, lint.Analyzers()...)
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if !strings.Contains(errw.String(), "skipped") {
		t.Errorf("stderr does not announce skipped packages:\n%s", errw.String())
	}
	if !strings.Contains(errw.String(), "broken") {
		t.Errorf("stderr does not name the skipped package:\n%s", errw.String())
	}
}

// TestUnknownAnalyzerName: -run with a name not in the suite is a
// usage error.
func TestUnknownAnalyzerName(t *testing.T) {
	var out, errw bytes.Buffer
	code := multichecker.Run([]string{"-run", "nosuch", "./..."}, &out, &errw, lint.Analyzers()...)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "no analyzer named") {
		t.Errorf("stderr missing the unknown-name message:\n%s", errw.String())
	}
}

func TestBadPatternFails(t *testing.T) {
	var out, errw bytes.Buffer
	code := multichecker.Run([]string{"./no/such/dir"}, &out, &errw, lint.Analyzers()...)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 for a load error", code)
	}
}
