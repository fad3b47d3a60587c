package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// citedName is a backticked Go identifier or dotted selector.
var citedName = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)

// outsideTerms are names the docs cite from outside the module: the Go
// scheduler's slot a woken goroutine runs in, and the Linux call that pins
// a thread to a CPU.
var outsideTerms = map[string]bool{
	"runnext":             true,
	"pthread_setaffinity": true,
}

// TestDocsNameRealCode fails when DESIGN.md or README.md cites, in
// backticks, a Go name that nothing in the tree defines or mentions: a
// renamed or deleted function that the prose still describes. The last
// part of each cited name (at least four characters) must occur as a word
// in some .go file of the module, tests and perfbench/ included, in
// ARCH.layers or in the Makefile. Prometheus series (insane_…) are
// composed by the exporter and checked by `make metrics-smoke` instead.
func TestDocsNameRealCode(t *testing.T) {
	words := treeWords(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		for _, c := range citedNames(t, doc) {
			if !words[c.last] {
				t.Errorf("%s:%d: `%s` names no code: %q occurs in no .go file, ARCH.layers or Makefile", doc, c.line, c.name, c.last)
			}
		}
	}
}

type citation struct {
	name, last string
	line       int
}

// citedNames returns the backticked names of doc outside fenced code
// blocks that the check applies to.
func citedNames(t *testing.T, doc string) []citation {
	t.Helper()
	data, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`]+)`")
	var out []citation
	fenced := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range span.FindAllStringSubmatch(line, -1) {
			name := m[1]
			if !citedName.MatchString(name) || strings.HasPrefix(name, "insane_") || outsideTerms[name] {
				continue
			}
			last := name[strings.LastIndex(name, ".")+1:]
			if len(last) < 4 {
				continue
			}
			out = append(out, citation{name: name, last: last, line: i + 1})
		}
	}
	return out
}

// treeWords is the set of words of every .go file under the module root
// (fixtures under testdata/ excluded: they name code that is wrong on
// purpose), of ARCH.layers and of the Makefile.
func treeWords(t *testing.T) map[string]bool {
	t.Helper()
	word := regexp.MustCompile(`[A-Za-z_]\w*`)
	words := map[string]bool{}
	add := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range word.FindAll(data, -1) {
			words[string(w)] = true
		}
	}
	add("ARCH.layers")
	add("Makefile")
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			add(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return words
}

// TestDesignSectionsCiteExperiments holds DESIGN.md's numbered sections to
// their evidence: each ends with a paragraph that starts "Measured in:",
// and every quoted title in it is an EXPERIMENTS.md section (a heading
// may carry a parenthesised suffix the quote leaves out). Every
// `EXPERIMENTS.md "<title>"` that README.md or CHANGES.md cites names a
// section too, where the quote may also leave out a subtitle after a
// colon. DESIGN.md stays under 800 lines.
func TestDesignSectionsCiteExperiments(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	experiments, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, line := range strings.Split(string(experiments), "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			headings = append(headings, h)
		}
	}
	exists := func(title string) bool {
		for _, h := range headings {
			if h == title || strings.HasPrefix(h, title+" (") {
				return true
			}
		}
		return false
	}
	if n := strings.Count(string(design), "\n"); n >= 800 {
		t.Errorf("DESIGN.md has %d lines, want under 800", n)
	}
	cite := regexp.MustCompile(`EXPERIMENTS\.md\s+"([^"]+)"`)
	for _, doc := range []string{"README.md", "CHANGES.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(data), -1) {
			title := strings.Join(strings.Fields(m[1]), " ")
			if !exists(title) && !slices.ContainsFunc(headings, func(h string) bool { return strings.HasPrefix(h, title+": ") }) {
				t.Errorf("%s cites EXPERIMENTS.md %q, which is no section", doc, title)
			}
		}
	}
	sections := regexp.MustCompile(`(?m)^## (\d+)\. .*$`)
	quoted := regexp.MustCompile(`"([^"]+)"`)
	text := string(design)
	locs := sections.FindAllStringSubmatchIndex(text, -1)
	var seen []string
	for i, loc := range locs {
		num := text[loc[2]:loc[3]]
		seen = append(seen, num)
		end := len(text)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		body := strings.TrimSpace(text[loc[1]:end])
		if j := strings.Index(body, "\n## "); j >= 0 { // an unnumbered top-level heading ends the section
			body = strings.TrimSpace(body[:j])
		}
		paras := strings.Split(body, "\n\n")
		last := strings.Join(strings.Fields(paras[len(paras)-1]), " ")
		if !strings.HasPrefix(last, "Measured in:") {
			t.Errorf("DESIGN.md §%s does not end with a \"Measured in:\" paragraph", num)
			continue
		}
		for _, m := range quoted.FindAllStringSubmatch(last, -1) {
			if !exists(m[1]) {
				t.Errorf("DESIGN.md §%s cites %q, which is no EXPERIMENTS.md section", num, m[1])
			}
		}
	}
	if want := "1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16"; strings.Join(seen, " ") != want {
		t.Errorf("DESIGN.md numbered sections are %v, want §1–§16 in order", seen)
	}
}
