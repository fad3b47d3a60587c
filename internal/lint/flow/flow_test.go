package flow

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// rec is the recording client: every state has a name (s0 is the entry
// state, later ones are numbered as they are made) and every hook call
// appends one line to the shared log.
type rec struct {
	name string
	log  *recLog
}

type recLog struct {
	lines []string
	next  int
}

func (l *recLog) add(format string, args ...interface{}) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *recLog) fresh() *rec {
	l.next++
	return &rec{name: fmt.Sprintf("s%d", l.next), log: l}
}

func (l *recLog) src(n ast.Node) string {
	switch n := n.(type) {
	case *ast.DeferStmt:
		return "defer " + types.ExprString(n.Call)
	case *ast.GoStmt:
		return "go " + types.ExprString(n.Call)
	case *ast.ExprStmt:
		return types.ExprString(n.X)
	case *ast.AssignStmt:
		if ta, ok := n.Rhs[0].(*ast.TypeAssertExpr); ok && ta.Type == nil {
			return types.ExprString(n.Lhs[0]) + " := " + types.ExprString(ta.X) + ".(type)"
		}
		return types.ExprString(n.Lhs[0]) + " " + n.Tok.String() + " " + types.ExprString(n.Rhs[0])
	case *ast.IncDecStmt:
		return types.ExprString(n.X) + n.Tok.String()
	case *ast.SendStmt:
		return types.ExprString(n.Chan) + " <- " + types.ExprString(n.Value)
	case ast.Expr:
		return types.ExprString(n)
	}
	return fmt.Sprintf("%T", n)
}

func (r *rec) Clone() *rec {
	c := r.log.fresh()
	r.log.add("clone %s -> %s", r.name, c.name)
	return c
}

func (r *rec) Join(outs []*rec) *rec {
	names := make([]string, len(outs))
	for i, o := range outs {
		names[i] = o.name
	}
	j := r.log.fresh()
	r.log.add("join %s [%s] -> %s", r.name, strings.Join(names, " "), j.name)
	return j
}

// run walks the body of `func f() { <body> }` with every hook
// recording, and returns the log plus the name of the state falling
// off the end ("" when no path does).
func run(t *testing.T, body string, branch, keepLaps bool) ([]string, string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", "package p\nfunc f() {\n"+body+"\n}\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	log := &recLog{next: -1}
	h := Hooks[*rec]{
		NoReturn: func(call *ast.CallExpr) bool {
			// No type information here: recognise the terminators the
			// suite's callutil.NoReturn knows by their spelling.
			switch types.ExprString(call.Fun) {
			case "panic", "os.Exit", "t.Fatal", "t.Fatalf", "log.Fatal", "runtime.Goexit":
				return true
			}
			return false
		},
		Stmt: func(s ast.Stmt, st *rec) { log.add("stmt %s @%s", log.src(s), st.name) },
		Eval: func(at ast.Node, e ast.Expr, st *rec) { log.add("eval %s @%s", log.src(e), st.name) },
		Exit: func(ret *ast.ReturnStmt, st *rec) { log.add("exit @%s", st.name) },
		IterEnd: func(loop ast.Stmt, depth int, at token.Pos, st *rec) bool {
			log.add("iterend depth=%d line=%d @%s", depth, fset.Position(at).Line-2, st.name)
			return keepLaps
		},
	}
	if branch {
		h.Branch = func(at ast.Node, cond ast.Expr, st *rec) (*rec, *rec) {
			th, el := log.fresh(), log.fresh()
			log.add("branch %s @%s -> %s %s", log.src(cond), st.name, th.name, el.name)
			return th, el
		}
	}
	out, ok := New(h).Walk(f.Decls[0].(*ast.FuncDecl).Body.List, log.fresh())
	if !ok {
		return log.lines, ""
	}
	return log.lines, out.name
}

func TestWalk(t *testing.T) {
	tests := []struct {
		name   string
		body   string
		branch bool // install a Branch hook (else the Eval+Clone default)
		laps   bool // IterEnd keeps its states: they leave through the loop head
		want   []string
		end    string // state falling off the end, "" when none
	}{
		{
			name: "straight line",
			body: "a = 1\nb++\nc <- d",
			want: []string{"stmt a = 1 @s0", "stmt b++ @s0", "stmt c <- d @s0"},
			end:  "s0",
		},
		{
			name: "return ends the list",
			body: "a = 1\nreturn\nb = 2",
			want: []string{"stmt a = 1 @s0", "exit @s0"},
		},
		{
			name: "panic, os.Exit and t.Fatal end the path after their statement",
			body: "if a { panic(x) }\nif b { os.Exit(1) }\nif c { t.Fatal(e) }\nd()",
			want: []string{
				"eval a @s0", "clone s0 -> s1", "clone s0 -> s2", "stmt panic(x) @s1", "join s0 [s2] -> s3",
				"eval b @s3", "clone s3 -> s4", "clone s3 -> s5", "stmt os.Exit(1) @s4", "join s3 [s5] -> s6",
				"eval c @s6", "clone s6 -> s7", "clone s6 -> s8", "stmt t.Fatal(e) @s7", "join s6 [s8] -> s9",
				"stmt d() @s9",
			},
			end: "s9",
		},
		{
			name:   "if without else: the else state is the implicit arm",
			body:   "if x := f(); c { a() }\nb()",
			branch: true,
			want: []string{
				"stmt x := f() @s0", "branch c @s0 -> s1 s2", "stmt a() @s1", "join s0 [s1 s2] -> s3", "stmt b() @s3",
			},
			end: "s3",
		},
		{
			name:   "if/else-if/else: every arm returns, nothing follows",
			body:   "if c { return } else if d { return } else { return }\nb()",
			branch: true,
			want:   []string{"branch c @s0 -> s1 s2", "exit @s1", "branch d @s2 -> s3 s4", "exit @s3", "exit @s4"},
		},
		{
			name:   "if/else: one arm falls through",
			body:   "if c { return } else { a() }\nb()",
			branch: true,
			want:   []string{"branch c @s0 -> s1 s2", "exit @s1", "stmt a() @s2", "join s0 [s2] -> s3", "stmt b() @s3"},
			end:    "s3",
		},
		{
			name:   "for with condition: body from then, exit from else, post then iterend",
			body:   "for i = 0; c; i++ { a() }\nb()",
			branch: true,
			want: []string{
				"stmt i = 0 @s0", "branch c @s0 -> s1 s2", "stmt a() @s1", "stmt i++ @s1",
				"iterend depth=1 line=1 @s1", "join s0 [s2] -> s3", "stmt b() @s3",
			},
			end: "s3",
		},
		{
			name: "for {} with no break ends the path",
			body: "for { a() }\nb()",
			want: []string{"clone s0 -> s1", "stmt a() @s1", "iterend depth=1 line=1 @s1"},
		},
		{
			name:   "for {} with a break: only break states leave",
			body:   "for { if c { break }\na() }\nb()",
			branch: true,
			want: []string{
				"clone s0 -> s1", "branch c @s1 -> s2 s3", "join s1 [s3] -> s4", "stmt a() @s4",
				"iterend depth=1 line=2 @s4", "join s0 [s2] -> s5", "stmt b() @s5",
			},
			end: "s5",
		},
		{
			name:   "a break inside a switch leaves the switch, not the loop",
			body:   "for { switch { case c: break }\na() }\nb()",
			branch: true,
			want: []string{
				"clone s0 -> s1", "branch c @s1 -> s2 s3", "join s3 [s3 s2] -> s4", "stmt a() @s4",
				"iterend depth=1 line=2 @s4",
			},
		},
		{
			name: "range: body from a clone, exhausted range falls through, continue is an iteration end",
			body: "for range xs { if c { continue }\na() }\nb()",
			want: []string{
				"eval xs @s0", "clone s0 -> s1", "eval c @s1", "clone s1 -> s2", "clone s1 -> s3",
				"iterend depth=1 line=1 @s2", "join s1 [s3] -> s4", "stmt a() @s4", "iterend depth=1 line=2 @s4",
				"join s0 [s0] -> s5", "stmt b() @s5",
			},
			end: "s5",
		},
		{
			name: "kept iteration-end states leave through the loop head, but not out of a bare for",
			body: "for range xs { if c { continue }\na() }\nfor { if d { break } }\nb()",
			laps: true,
			want: []string{
				"eval xs @s0", "clone s0 -> s1", "eval c @s1", "clone s1 -> s2", "clone s1 -> s3",
				"iterend depth=1 line=1 @s2", "join s1 [s3] -> s4", "stmt a() @s4", "iterend depth=1 line=2 @s4",
				"join s0 [s2 s4 s0] -> s5",
				"clone s5 -> s6", "eval d @s6", "clone s6 -> s7", "clone s6 -> s8", "join s6 [s8] -> s9",
				"iterend depth=1 line=3 @s9", "join s5 [s7] -> s10", "stmt b() @s10",
			},
			end: "s10",
		},
		{
			name: "labelled break and continue out of a select nested in a for",
			body: "outer:\nfor range xs {\nfor {\nselect {\ncase <-a:\nbreak outer\ncase <-b:\ncontinue outer\ncase <-c:\nbreak\n}\nd()\n}\n}\ne()",
			want: []string{
				"eval xs @s0", "clone s0 -> s1", "clone s1 -> s2",
				"clone s2 -> s3", "stmt <-a @s3",
				"clone s2 -> s4", "stmt <-b @s4", "iterend depth=1 line=8 @s4",
				"clone s2 -> s5", "stmt <-c @s5",
				"join s2 [s5] -> s6", "stmt d() @s6", "iterend depth=2 line=13 @s6",
				"join s0 [s3 s0] -> s7", "stmt e() @s7",
			},
			end: "s7",
		},
		{
			name: "select with every arm returning ends the path; select{} blocks forever",
			body: "if c { select {} }\nselect { case <-a: return\ndefault: return }\nb()",
			want: []string{
				"eval c @s0", "clone s0 -> s1", "clone s0 -> s2", "join s0 [s2] -> s3",
				"clone s3 -> s4", "stmt <-a @s4", "exit @s4", "clone s3 -> s5", "exit @s5",
			},
		},
		{
			name: "tagged switch without default: the unmatched state is the implicit arm",
			body: "switch x := f(); x {\ncase 1, 2:\na()\ncase 3:\nreturn\n}\nb()",
			want: []string{
				"stmt x := f() @s0", "eval x @s0", "eval 1 @s0", "eval 2 @s0", "clone s0 -> s1", "eval 3 @s0", "clone s0 -> s2",
				"stmt a() @s1", "exit @s2", "join s0 [s1 s0] -> s3", "stmt b() @s3",
			},
			end: "s3",
		},
		{
			name: "tagged switch with default, all arms return: nothing follows",
			body: "switch x {\ndefault:\nreturn\ncase 1:\nreturn\n}\nb()",
			want: []string{"eval x @s0", "eval 1 @s0", "clone s0 -> s1", "clone s0 -> s2", "exit @s2", "exit @s1"},
		},
		{
			name:   "untagged switch: each case refines what the next one sees, default gets the rest",
			body:   "switch {\ncase c:\na()\ndefault:\nz()\ncase d:\nb()\n}",
			branch: true,
			want: []string{
				"branch c @s0 -> s1 s2", "branch d @s2 -> s3 s4", "clone s4 -> s5",
				"stmt a() @s1", "stmt z() @s5", "stmt b() @s3", "join s4 [s1 s3 s5] -> s6",
			},
			end: "s6",
		},
		{
			name: "fallthrough joins into the next clause's entry",
			body: "switch x {\ncase 1:\na()\nfallthrough\ncase 2:\nb()\n}",
			want: []string{
				"eval x @s0", "eval 1 @s0", "clone s0 -> s1", "eval 2 @s0", "clone s0 -> s2",
				"stmt a() @s1", "join s2 [s1 s2] -> s3", "stmt b() @s3", "join s0 [s3 s0] -> s4",
			},
			end: "s4",
		},
		{
			name: "type switch: the guard is a simple statement, arms fork from it",
			body: "switch v := x.(type) {\ncase int:\na(v)\ncase nil:\nreturn\n}",
			want: []string{
				"stmt v := x.(type) @s0", "eval int @s0", "clone s0 -> s1", "eval nil @s0", "clone s0 -> s2",
				"stmt a(v) @s1", "exit @s2", "join s0 [s1 s0] -> s3",
			},
			end: "s3",
		},
		{
			name: "defer and go are handed over whole; func literals are not entered",
			body: "defer mu.Unlock()\ngo func() { for {} }()\nf := func() { return }\n_ = f",
			want: []string{
				"stmt defer mu.Unlock() @s0", "stmt go (func() literal)() @s0", "stmt f := (func() literal) @s0", "stmt _ = f @s0",
			},
			end: "s0",
		},
		{
			name: "goto drops the state; a label on a plain statement names nothing",
			body: "if c { goto done }\na()\ndone:\nb()",
			want: []string{
				"eval c @s0", "clone s0 -> s1", "clone s0 -> s2", "join s0 [s2] -> s3", "stmt a() @s3", "stmt b() @s3",
			},
			end: "s3",
		},
		{
			name: "nested loops report their own depth",
			body: "for range xs { for range ys { a() } }",
			want: []string{
				"eval xs @s0", "clone s0 -> s1", "eval ys @s1", "clone s1 -> s2", "stmt a() @s2",
				"iterend depth=2 line=1 @s2", "join s1 [s1] -> s3", "iterend depth=1 line=1 @s3", "join s0 [s0] -> s4",
			},
			end: "s4",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, end := run(t, tt.body, tt.branch, tt.laps)
			if strings.Join(got, "\n") != strings.Join(tt.want, "\n") {
				t.Errorf("hook log:\n  got  %q\n  want %q", got, tt.want)
			}
			if end != tt.end {
				t.Errorf("falls off the end as %q, want %q", end, tt.end)
			}
		})
	}
}

// TestWalkReentrant: a hook may walk a function literal with the same
// walker; the literal's breaks and loop depth are its own.
func TestWalkReentrant(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", "package p\nfunc f() {\nfor {\ng(func() { for { break } })\nbreak\n}\n}\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	log := &recLog{next: -1}
	var w *Walker[*rec]
	var depths []int
	w = New(Hooks[*rec]{
		NoReturn: func(*ast.CallExpr) bool { return false },
		Stmt: func(s ast.Stmt, st *rec) {
			ast.Inspect(s, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					if _, ok := w.Walk(lit.Body.List, st.Clone()); !ok {
						t.Error("the literal's own break should leave its loop")
					}
					return false
				}
				return true
			})
		},
		IterEnd: func(_ ast.Stmt, depth int, _ token.Pos, _ *rec) bool { depths = append(depths, depth); return false },
	})
	if _, ok := w.Walk(f.Decls[0].(*ast.FuncDecl).Body.List, log.fresh()); !ok {
		t.Error("the outer break should leave the outer loop")
	}
	if w.Depth() != 0 || len(depths) != 0 {
		t.Errorf("depth %d after the walk, iteration ends %v; want 0 and none", w.Depth(), depths)
	}
}
