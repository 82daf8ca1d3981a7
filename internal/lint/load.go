package lint

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the expression/type maps filled during checking.
	Info *types.Info
	// Fset is the file set shared by every package of one Loader.
	Fset *token.FileSet
}

// Loader parses and type-checks packages from the go tool's own
// listing: each Load runs one `go list -e -json -deps -export` per
// module it names, which resolves the patterns, orders dependencies
// before their importers and names each package's compiler export data.
// Packages that are not standard are type-checked from source, once per
// Loader; standard ones are read from their export data. Analyzer
// fixture packages under testdata/ load the same way, so the analyzers
// see identical type information in production runs and in tests.
type Loader struct {
	dir     string
	fset    *token.FileSet
	std     types.Importer
	exports map[string]string   // standard import path -> export data file
	pkgs    map[string]*Package // type-checked from source, by import path
}

// NewLoader returns a loader that resolves patterns as the go tool run
// in dir does.
func NewLoader(dir string) *Loader {
	l := &Loader{dir: dir, fset: token.NewFileSet(), exports: map[string]string{}, pkgs: map[string]*Package{}}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
		return os.Open(file)
	})
	return l
}

// Load type-checks the packages the patterns name and returns them
// sorted by import path. Patterns are the go tool's, except that a
// relative pattern inside a directory with a go.mod of its own
// (./bench/...) is listed in that module, into the same Loader, so a
// package both modules use is one *types.Package. Packages with no
// non-test Go files are skipped; a pattern that names no package is an
// error.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	byModule := map[string][]string{}
	var modules []string
	for _, pat := range patterns {
		dir, rel := l.moduleOf(pat)
		if byModule[dir] == nil {
			modules = append(modules, dir)
		}
		byModule[dir] = append(byModule[dir], rel)
	}
	var out []*Package
	for _, dir := range modules {
		pkgs, err := l.list(dir, byModule[dir])
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// moduleOf returns the directory to list a pattern in, and the pattern
// relative to it: for a relative pattern, the innermost directory with
// a go.mod below the loader's that holds the pattern's fixed prefix;
// otherwise the loader's own.
func (l *Loader) moduleOf(pat string) (dir, rel string) {
	prefix, _, _ := strings.Cut(pat, "...")
	for d := filepath.Join(l.dir, prefix); build.IsLocalImport(pat); d = filepath.Dir(d) {
		if r, err := filepath.Rel(l.dir, d); err != nil || r == "." || !filepath.IsLocal(r) {
			break
		}
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			r, _ := filepath.Rel(d, filepath.Join(l.dir, pat))
			return d, "./" + filepath.ToSlash(r)
		}
	}
	return l.dir, pat
}

// list runs one go list over the patterns in dir, type-checks every
// package it names that is not standard, in dependency order, and
// returns those the patterns match.
func (l *Loader) list(dir string, patterns []string) ([]*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json", "-deps", "-export", "--"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	// A wildcard that matches nothing is only a warning to the go tool.
	if err != nil || bytes.Contains(stderr.Bytes(), []byte("matched no packages")) {
		msg := cmp.Or(strings.TrimSpace(stderr.String()), fmt.Sprint(err))
		return nil, fmt.Errorf("lint: go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var out []*Package
	for dec := json.NewDecoder(bytes.NewReader(stdout)); dec.More(); {
		var p struct {
			ImportPath, Dir, Export string
			Standard, DepOnly       bool
			GoFiles                 []string
			Error                   *struct{ Err string }
		}
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: go list: %w", err)
		}
		switch {
		case p.Error != nil:
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		case p.Standard:
			l.exports[p.ImportPath] = p.Export
		case len(p.GoFiles) > 0:
			pkg, err := l.check(p.ImportPath, p.Dir, p.GoFiles)
			if err != nil {
				return nil, err
			}
			if !p.DepOnly {
				out = append(out, pkg)
			}
		}
	}
	return out, nil
}

// check parses and type-checks one package from source, unless this
// Loader already has.
func (l *Loader) check(path, dir string, names []string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-check %s: %v", path, typeErrs[0])
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info, Fset: l.fset}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: a package this Loader type-checked
// from source, else the standard library's export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
