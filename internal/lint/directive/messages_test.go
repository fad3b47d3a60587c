package directive_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"github.com/insane-mw/insane/internal/lint/directive"
)

// TestMalformedMessages pins the text of every malformed-directive
// message the option grammar emits: the analyzers report them verbatim,
// and fixtures and users match on them.
func TestMalformedMessages(t *testing.T) {
	pair := func(comment string) string {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", "package p\n\n"+comment+"\nfunc F() {}\n", parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		_, probs := directive.ParsePairDecl(f.Decls[0].(*ast.FuncDecl).Doc)
		if len(probs) != 1 {
			return ""
		}
		return probs[0].Msg
	}
	goroutine := func(text string) string { g, _ := directive.ParseGoroutine(text); return g.Malformed }
	bounded := func(text string) string { b, _ := directive.ParseBounded(text); return b.Malformed }

	tests := []struct {
		parse func(string) string
		text  string
		want  string
	}{
		{goroutine, "//insane:goroutine", "missing owner= and stop="},
		{goroutine, "//insane:goroutine owner=R", "missing stop="},
		{goroutine, "//insane:goroutine stop=Close", "missing owner="},
		{goroutine, "//insane:goroutine owner stop=Close", "option owner is not key=value"},
		{goroutine, "//insane:goroutine owner= stop=Close", "empty value for owner="},
		{goroutine, "//insane:goroutine owner=R stop=Close join=Wait", "unknown key join (only owner= and stop= are recognized)"},
		{goroutine, "//insane:goroutine junk= owner=R", "empty value for junk="},

		{bounded, "//insane:bounded", "missing by=<reason>"},
		{bounded, "//insane:bounded cap=8", "option cap=8 is not by=<reason>"},
		{bounded, "//insane:bounded burst cap", "option burst is not by=<reason>"},
		{bounded, "//insane:bounded by=", "empty reason after by="},
		{bounded, "//insane:bounded by=   ", "empty reason after by="},

		{pair, "//insane:acquire", "//insane:acquire: missing resource=<name>"},
		{pair, "//insane:acquire on=true", "//insane:acquire: missing resource=<name>"},
		{pair, "//insane:acquire resource=tx on=maybe", "//insane:acquire: unknown on= value maybe (only true and nilerr are recognized)"},
		{pair, "//insane:transfer resource=tx junk", "//insane:transfer: option junk is not key=value"},
		{pair, "//insane:transfer resource= on=true", "//insane:transfer: empty value for resource="},
		{pair, "//insane:transfer resource=tx when=later", "//insane:transfer: unknown key when (only resource= and on= are recognized)"},
		{pair, "//insane:release resource=tx on=true", "//insane:release: release effects are unconditional (drop on=)"},
		{pair, "//insane:release resource=tx when=later", "//insane:release: unknown key when (only resource= and on= are recognized)"},

		{pair, "//insane:unbalanced", "//insane:unbalanced: missing resource=<name> and by=<reason>"},
		{pair, "//insane:unbalanced by=reason without resource", "//insane:unbalanced: resource=<name> must come first (the by= reason runs to end of line)"},
		{pair, "//insane:unbalanced resource= by=x", "//insane:unbalanced: empty value for resource="},
		{pair, "//insane:unbalanced resource=tx", "//insane:unbalanced: missing by=<reason>"},
		{pair, "//insane:unbalanced resource=tx by=", "//insane:unbalanced: empty reason after by="},
	}
	for _, tt := range tests {
		if got := tt.parse(tt.text); got != tt.want {
			t.Errorf("%s:\n  got  %q\n  want %q", tt.text, got, tt.want)
		}
	}
}
