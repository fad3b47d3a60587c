package directive

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestParseBounded(t *testing.T) {
	tests := []struct {
		text      string
		ok        bool
		by        string
		malformed bool
	}{
		{"//insane:bounded by=burst cap", true, "burst cap", false},
		{"//insane:bounded   by=NumClasses gate walk  ", true, "NumClasses gate walk", false},
		{"//insane:bounded", true, "", true},
		{"//insane:bounded cap=8", true, "", true},
		{"//insane:bounded by=", true, "", true},
		{"//insane:bounded by=   ", true, "", true},
		{"//insane:boundedly wrong", false, "", false},
		{"// plain comment", false, "", false},
		{"//insane:hotpath", false, "", false},
	}
	for _, tt := range tests {
		b, ok := ParseBounded(tt.text)
		if ok != tt.ok {
			t.Errorf("ParseBounded(%q) ok=%v, want %v", tt.text, ok, tt.ok)
			continue
		}
		if !ok {
			continue
		}
		if (b.Malformed != "") != tt.malformed {
			t.Errorf("ParseBounded(%q) malformed=%q, want malformed=%v", tt.text, b.Malformed, tt.malformed)
		}
		if b.By != tt.by {
			t.Errorf("ParseBounded(%q) by=%q, want %q", tt.text, b.By, tt.by)
		}
	}
}

func TestParseFuncDecl(t *testing.T) {
	const src = `package p

//insane:hotpath
func Hot() {}

//insane:hotpath allow=block
func HotBlock() {}

//insane:hotpath allow=panic
func BadOption() {}

//insane:coldpath setup only
func Cold() {}

//insane:coldpath
func ColdNoReason() {}

func Plain() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		d     FuncDirectives
		probs int
	}{
		"Hot":          {FuncDirectives{Hot: true}, 0},
		"HotBlock":     {FuncDirectives{Hot: true, AllowBlock: true}, 0},
		"BadOption":    {FuncDirectives{Hot: true}, 1},
		"Cold":         {FuncDirectives{Cold: true}, 0},
		"ColdNoReason": {FuncDirectives{Cold: true}, 1},
		"Plain":        {FuncDirectives{}, 0},
	}
	for _, decl := range f.Decls {
		fd := decl.(*ast.FuncDecl)
		d, probs := ParseFuncDecl(fd.Doc)
		w, ok := want[fd.Name.Name]
		if !ok {
			t.Fatalf("unexpected decl %s", fd.Name.Name)
		}
		if d != w.d {
			t.Errorf("%s: directives %+v, want %+v", fd.Name.Name, d, w.d)
		}
		if len(probs) != w.probs {
			t.Errorf("%s: %d problems %v, want %d", fd.Name.Name, len(probs), probs, w.probs)
		}
	}
}

func TestHasMarker(t *testing.T) {
	const src = `package p

type I interface {
	//insane:hotpath
	M()
	N()
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	it := f.Decls[0].(*ast.GenDecl).Specs[0].(*ast.TypeSpec).Type.(*ast.InterfaceType)
	if !HasMarker(it.Methods.List[0].Doc, HotMarker) {
		t.Error("M should carry the hotpath marker")
	}
	if HasMarker(it.Methods.List[1].Doc, HotMarker) {
		t.Error("N should not carry the hotpath marker")
	}
	if HasMarker(nil, HotMarker) {
		t.Error("nil comment group should not carry any marker")
	}
}

func TestBoundedIndex(t *testing.T) {
	const src = `package p

func f() {
	//insane:bounded by=claimed below
	_ = 1
	_ = 2 //insane:bounded by=trailing same line
}

//insane:bounded by=attached to nothing
var x int

//insane:bounded
var y int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx := Scan(fset, []*ast.File{f}, ParseBounded)

	// Line 5 (the statement under the first annotation) is covered.
	if b, ok := idx.At(token.Position{Filename: "p.go", Line: 5}); !ok || b.By != "claimed below" {
		t.Errorf("line 5: got %+v ok=%v, want claimed below", b, ok)
	}
	// Line 6 carries a trailing annotation on its own line.
	if b, ok := idx.At(token.Position{Filename: "p.go", Line: 6}); !ok || b.By != "trailing same line" {
		t.Errorf("line 6: got %+v ok=%v, want trailing same line", b, ok)
	}
	if _, ok := idx.At(token.Position{Filename: "p.go", Line: 3}); ok {
		t.Error("line 3 should not be covered")
	}

	unclaimed := idx.Unclaimed()
	if len(unclaimed) != 2 {
		t.Fatalf("unclaimed = %d annotations %v, want 2", len(unclaimed), unclaimed)
	}
	if unclaimed[0].By != "attached to nothing" || unclaimed[0].Malformed != "" {
		t.Errorf("unclaimed[0] = %+v", unclaimed[0])
	}
	if unclaimed[1].Malformed == "" {
		t.Errorf("unclaimed[1] should be malformed: %+v", unclaimed[1])
	}
}
