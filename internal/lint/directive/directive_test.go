package directive_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"github.com/insane-mw/insane/internal/lint/directive"
)

const src = `package x

func f() {
	//lint:ignore insanevet/bufownership the slot is quarantined by the test harness
	use()
	ok() //lint:ignore insanevet/lockorder trailing directive on its own line
	//lint:ignore bufownership missing the insanevet namespace
	//lint:ignore insanevet/timebase
	use()
}

func use() {}
func ok()  {}
`

func index(t *testing.T) (*token.FileSet, *directive.Index) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, directive.NewIndex(fset, []*ast.File{f})
}

func TestSuppressesNextLine(t *testing.T) {
	_, idx := index(t)
	at := func(line int) token.Position { return token.Position{Filename: "x.go", Line: line} }

	// Comment-above style: directive on line 4 covers line 5.
	if !idx.Suppresses(at(5), "bufownership") {
		t.Error("directive above the statement should suppress it")
	}
	// Only the named rule is waived.
	if idx.Suppresses(at(5), "lockorder") {
		t.Error("directive must not suppress other rules")
	}
	// Trailing style: directive on line 6 covers line 6.
	if !idx.Suppresses(at(6), "lockorder") {
		t.Error("trailing directive should suppress its own line")
	}
	// Out of range.
	if idx.Suppresses(at(9), "bufownership") {
		t.Error("directives must not leak past the following line")
	}
}

func TestMalformedDirectives(t *testing.T) {
	_, idx := index(t)
	bad := idx.Malformed()
	if len(bad) != 2 {
		t.Fatalf("got %d malformed directives, want 2: %+v", len(bad), bad)
	}
	// Neither malformed directive suppresses anything.
	if idx.Suppresses(token.Position{Filename: "x.go", Line: 8}, "bufownership") ||
		idx.Suppresses(token.Position{Filename: "x.go", Line: 9}, "timebase") {
		t.Error("malformed directives must not suppress")
	}
}

func TestParseGoroutine(t *testing.T) {
	cases := []struct {
		text      string
		match     bool
		owner     string
		stop      string
		malformed string // substring of the expected Malformed text, "" for well-formed
	}{
		{"//insane:goroutine owner=Runtime stop=Close", true, "Runtime", "Close", ""},
		{"//insane:goroutine stop=Close owner=Sink", true, "Sink", "Close", ""},
		{"//insane:goroutine", true, "", "", "missing owner= and stop="},
		{"//insane:goroutine owner=Runtime", true, "Runtime", "", "missing stop="},
		{"//insane:goroutine stop=Close", true, "", "Close", "missing owner="},
		{"//insane:goroutine owner=Runtime stop=Close join=Wait", true, "", "", "unknown key join"},
		{"//insane:goroutine owner stop=Close", true, "", "", "not key=value"},
		{"//insane:goroutine owner= stop=Close", true, "", "", "empty value for owner="},
		{"//insane:goroutinepool owner=X stop=Y", false, "", "", ""},
		{"// insane:goroutine owner=X stop=Y", false, "", "", ""},
		{"//lint:ignore insanevet/goroutinecheck reason", false, "", "", ""},
	}
	for _, c := range cases {
		g, ok := directive.ParseGoroutine(c.text)
		if ok != c.match {
			t.Errorf("ParseGoroutine(%q) matched=%v, want %v", c.text, ok, c.match)
			continue
		}
		if !ok {
			continue
		}
		if c.malformed != "" {
			if !strings.Contains(g.Malformed, c.malformed) {
				t.Errorf("ParseGoroutine(%q).Malformed = %q, want substring %q", c.text, g.Malformed, c.malformed)
			}
			continue
		}
		if g.Malformed != "" {
			t.Errorf("ParseGoroutine(%q) unexpectedly malformed: %q", c.text, g.Malformed)
		}
		if g.Owner != c.owner || g.Stop != c.stop {
			t.Errorf("ParseGoroutine(%q) = owner %q stop %q, want %q %q", c.text, g.Owner, g.Stop, c.owner, c.stop)
		}
	}
}

const goSrc = `package x

func f() {
	//insane:goroutine owner=Runtime stop=Close
	go loop()
	go work() //insane:goroutine owner=Worker stop=Stop
	//insane:goroutine owner=Stray stop=Never
	x := 1
	_ = x
}

func loop() {}
func work() {}
`

func TestGoroutineIndex(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", goSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx := directive.Scan(fset, []*ast.File{f}, directive.ParseGoroutine)
	at := func(line int) token.Position { return token.Position{Filename: "x.go", Line: line} }

	// Comment-above style: directive on line 4 covers the go statement
	// on line 5.
	g, ok := idx.At(at(5))
	if !ok || g.Owner != "Runtime" || g.Stop != "Close" {
		t.Errorf("At(5) = %+v, %v; want Runtime/Close", g, ok)
	}
	// Trailing style covers its own line.
	g, ok = idx.At(at(6))
	if !ok || g.Owner != "Worker" || g.Stop != "Stop" {
		t.Errorf("At(6) = %+v, %v; want Worker/Stop", g, ok)
	}
	if _, ok := idx.At(at(11)); ok {
		t.Error("annotations must not leak past the following line")
	}
	// The stray directive (line 7, covering lines 7-8) was never
	// claimed by a go statement.
	stray := idx.Unclaimed()
	if len(stray) != 1 || stray[0].Owner != "Stray" {
		t.Errorf("Unclaimed() = %+v, want the one Stray annotation", stray)
	}
}

func TestCollectReasons(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	igs := directive.NewIndex(fset, []*ast.File{f}).All()
	if len(igs) != 4 {
		t.Fatalf("got %d directives, want 4", len(igs))
	}
	if igs[0].Rule != "bufownership" || igs[0].Reason == "" {
		t.Errorf("first directive parsed wrong: %+v", igs[0])
	}
	if igs[3].Malformed == "" {
		t.Errorf("reason-less directive should be malformed: %+v", igs[3])
	}
}
