package lint

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

	"nsdfgo/internal/lint/cfg"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the package's import path (module path + relative dir).
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

	// graphs caches the control-flow graph of each function body the
	// flow-sensitive analyzers have visited (see graph in obligation.go).
	graphs map[*ast.BlockStmt]*cfg.Graph
}

// Loader parses and type-checks packages of a single Go module using
// only the standard library: module-internal imports are resolved from
// source, everything else through the compiler's export data. Analyzer
// fixture packages under testdata/ load the same way, so the analyzers
// see identical type information in production runs and in tests.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	std        types.Importer
	pkgs       map[string]*Package
	loading    map[string]bool
}

// NewLoader returns a loader rooted at the directory containing go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: read go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", moduleRoot)
	}
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	return &Loader{
		fset:       token.NewFileSet(),
		moduleRoot: abs,
		modulePath: modPath,
		std:        importer.Default(),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Load resolves the given patterns to package directories, loads and
// type-checks each, and returns them sorted by import path. Supported
// patterns: "./..." (whole module), "./dir/..." (subtree), "./dir" or
// "dir" (single package). testdata, hidden, and underscore-prefixed
// directories are skipped during "..." expansion.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		rel := strings.TrimPrefix(pat, "./")
		switch {
		case rel == "..." || rel == "":
			if err := l.walkPackages(l.moduleRoot, dirs); err != nil {
				return nil, err
			}
		case strings.HasSuffix(rel, "/..."):
			root := filepath.Join(l.moduleRoot, filepath.FromSlash(strings.TrimSuffix(rel, "/...")))
			if err := l.walkPackages(root, dirs); err != nil {
				return nil, err
			}
		default:
			dirs[filepath.Join(l.moduleRoot, filepath.FromSlash(rel))] = true
		}
	}
	var out []*Package
	for dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// walkPackages collects every directory under root that contains
// buildable Go files, honouring the go tool's skip conventions.
func (l *Loader) walkPackages(root string, dirs map[string]bool) error {
	return filepath.WalkDir(root, func(p string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !de.IsDir() {
			return nil
		}
		name := de.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(p, 0); err == nil && len(bp.GoFiles) > 0 {
			dirs[p] = true
		}
		return nil
	})
}

// importPathFor maps an absolute package directory to its import path
// within the module.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.moduleRoot)
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir loads and type-checks the package in one directory (absolute
// path inside the module). Directories with no buildable Go files load
// as nil without error.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.loadPath(path, dir)
}

func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(path, l.modulePath)
	rel = strings.TrimPrefix(rel, "/")
	return filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
}

func (l *Loader) loadPath(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, noGo := err.(*build.NoGoError); noGo {
			return nil, nil
		}
		return nil, fmt.Errorf("lint: scan %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
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

// Import implements types.Importer: module-internal paths load from
// source; everything else (the standard library) comes from compiler
// export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.loadPath(path, l.dirFor(path))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
