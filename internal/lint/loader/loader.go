// Package loader loads and type-checks Go packages for the insanevet
// analyzers without any network or module-proxy access.
//
// It is a deliberately small replacement for golang.org/x/tools/go/packages:
// module-internal import paths are mapped onto directories below the
// module root, and standard-library imports are type-checked from
// GOROOT source via go/importer's "source" compiler. The repository has
// no third-party dependencies, so these two cases cover every import.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path (for file-system-rooted loads
	// it is the path the caller assigned).
	Path string
	// Dir is the directory holding the package's files.
	Dir string
	// Fset maps positions in Files.
	Fset *token.FileSet
	// Files is the parsed non-test syntax, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker results for Files.
	Info *types.Info
}

// Loader loads packages of one module (plus the standard library).
type Loader struct {
	// Root is the directory import paths are resolved under.
	Root string
	// Module is the module path mapped onto Root. When empty, import
	// paths are resolved as directories directly below Root (the
	// layout of analysistest testdata trees).
	Module string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*entry
}

type entry struct {
	pkg     *Package
	err     error
	loading bool
}

// New returns a Loader for the module containing dir: it walks up from
// dir to the nearest go.mod and reads the module path from it.
func New(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			mod := modulePath(data)
			if mod == "" {
				return nil, fmt.Errorf("loader: no module line in %s/go.mod", d)
			}
			return NewAt(d, mod), nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return nil, fmt.Errorf("loader: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// NewAt returns a Loader resolving the given module path at root.
// An empty module path resolves import paths as plain directories below
// root (testdata layout).
func NewAt(root, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*entry),
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Load resolves the given patterns to packages and type-checks them.
// Supported patterns: "./..." (whole module), "./dir/..." (subtree) and
// "./dir" (one package); a bare module-internal import path also works.
// The first package that fails to parse or type-check aborts the load.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.resolve(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		if !hasGoFiles(dir) {
			continue
		}
		pkg, err := l.LoadDir(dir, l.pathFor(dir))
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadError records one package that could not be loaded during a
// lenient LoadAll.
type LoadError struct {
	// Path is the import path of the broken package.
	Path string
	// Err is the parse or type-check failure.
	Err error
}

func (e LoadError) Error() string { return e.Path + ": " + e.Err.Error() }

// LoadAll is Load with per-package error recovery: packages that fail
// to parse or type-check are skipped and reported in the second return
// value instead of aborting the whole load. Pattern-resolution errors
// (no such directory, unreadable tree) still fail hard, since they mean
// the caller asked for something that does not exist.
func (l *Loader) LoadAll(patterns ...string) ([]*Package, []LoadError, error) {
	dirs, err := l.resolve(patterns)
	if err != nil {
		return nil, nil, err
	}
	var out []*Package
	var failed []LoadError
	for _, dir := range dirs {
		if !hasGoFiles(dir) {
			continue
		}
		path := l.pathFor(dir)
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			failed = append(failed, LoadError{Path: path, Err: err})
			continue
		}
		out = append(out, pkg)
	}
	return out, failed, nil
}

// ByPath returns the already-loaded package registered under the given
// import path, if any. Dependencies pulled in while type-checking a
// requested package are registered too, so after a Load the whole
// in-module import closure is reachable through ByPath.
func (l *Loader) ByPath(path string) (*Package, bool) {
	e, ok := l.pkgs[path]
	if !ok || e.loading || e.err != nil || e.pkg == nil {
		return nil, false
	}
	return e.pkg, true
}

// Closure expands pkgs with the in-module packages they import, directly
// or not (loaded while type-checking them), and returns the closure
// sorted dependencies-first. The order is deterministic: requested
// packages arrive sorted from the loader and imports are followed in
// the type-checker's order. A loaded package graph has no cycles —
// LoadDir refuses them — so a depth-first post-order is a topological
// one.
func (l *Loader) Closure(pkgs ...*Package) []*Package {
	var order []*Package
	seen := make(map[string]bool)
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p.Path] {
			return
		}
		seen[p.Path] = true
		for _, imp := range p.Types.Imports() {
			if dep, ok := l.ByPath(imp.Path()); ok {
				visit(dep)
			}
		}
		order = append(order, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return order
}

// resolve maps patterns to the sorted list of candidate directories.
func (l *Loader) resolve(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "all" || pat == "./...":
			if err := l.walk(l.Root, add); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := l.dirFor(strings.TrimSuffix(pat, "/..."))
			if err := l.walk(base, add); err != nil {
				return nil, err
			}
		default:
			dir := l.dirFor(pat)
			if !hasGoFiles(dir) {
				return nil, fmt.Errorf("loader: no Go package matches %q", pat)
			}
			add(dir)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// dirFor maps a pattern element to a directory.
func (l *Loader) dirFor(pat string) string {
	if strings.HasPrefix(pat, "./") || pat == "." {
		return filepath.Join(l.Root, strings.TrimPrefix(pat, "./"))
	}
	if l.Module != "" && (pat == l.Module || strings.HasPrefix(pat, l.Module+"/")) {
		return filepath.Join(l.Root, strings.TrimPrefix(strings.TrimPrefix(pat, l.Module), "/"))
	}
	return filepath.Join(l.Root, pat)
}

// pathFor maps a directory below Root to its import path.
func (l *Loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	rel = filepath.ToSlash(rel)
	if l.Module == "" {
		return rel
	}
	return l.Module + "/" + rel
}

// walk collects package directories below base, skipping testdata,
// hidden and underscore-prefixed directories, and — as `go build ./...`
// does — any subdirectory that is the root of another module.
func (l *Loader) walk(base string, add func(string)) error {
	return filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); path != base && err == nil {
			return filepath.SkipDir
		}
		add(path)
		return nil
	})
}

// hasGoFiles reports whether dir holds at least one non-test Go file.
func hasGoFiles(dir string) bool {
	names, err := goFileNames(dir)
	return err == nil && len(names) > 0
}

// goFileNames lists dir's buildable non-test Go files, sorted.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// MatchFile applies the //go:build constraints and GOOS/GOARCH
		// file-name conventions of the current build context.
		if ok, err := ctxt.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadDir parses and type-checks the package in dir, registering it
// under the given import path.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if e, ok := l.pkgs[path]; ok {
		if e.loading {
			return nil, fmt.Errorf("loader: import cycle through %s", path)
		}
		return e.pkg, e.err
	}
	e := &entry{loading: true}
	l.pkgs[path] = e
	e.pkg, e.err = l.loadDir(dir, path)
	e.loading = false
	return e.pkg, e.err
}

func (l *Loader) loadDir(dir, path string) (*Package, error) {
	names, err := goFileNames(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: %s: %w", path, err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []types.Error
	conf := types.Config{
		Importer: importerFunc(func(ipath string) (*types.Package, error) {
			return l.importPkg(ipath)
		}),
		Error: func(err error) {
			if te, ok := err.(types.Error); ok {
				typeErrs = append(typeErrs, te)
			}
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, 3)
		for i, te := range typeErrs {
			if i == 3 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-3))
				break
			}
			msgs = append(msgs, fmt.Sprintf("%s: %s", l.fset.Position(te.Pos), te.Msg))
		}
		return nil, fmt.Errorf("loader: type errors in %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("loader: %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// importPkg resolves one import encountered while type-checking:
// module-internal paths load from the module tree, everything else is
// standard library and loads from GOROOT source.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	inModule := l.Module != "" && (path == l.Module || strings.HasPrefix(path, l.Module+"/"))
	if l.Module == "" {
		// Testdata layout: any path that exists as a directory below
		// Root is an in-tree package.
		if st, err := os.Stat(l.dirFor(path)); err == nil && st.IsDir() {
			inModule = true
		}
	}
	if inModule {
		pkg, err := l.LoadDir(l.dirFor(path), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
