package nsdfgo_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"nsdfgo/internal/lint"
)

// exportAllowlist names the exported identifiers under internal/ that
// stay although no program calls them, each with the reason it stays.
var exportAllowlist = map[string]string{
	"trace.Collector.SetClock":         "test seam: the trace tests pin span timestamps through it",
	"flight.Recorder.SetClock":         "test seam: the flight-recorder tests pin event timestamps through it",
	"idx.Dataset.WriteRegion":          "out-of-core ingestion, a reproduced capability (DESIGN.md §3)",
	"dem.DiamondSquare":                "the diamond–square DEM generator PAPER.md §2 names",
	"storage.Dataverse.GetFileVersion": "the dataset versioning PAPER.md §2 names",
	"telemetry.StatusRecorder.Unwrap":  "http.ResponseController reaches it through an interface net/http does not export",
	"cache.Tiered.Clear":               "called by bench/e2e/e2e_test.go, a file the loader does not type-check",
}

// TestEveryExportHasACaller fails on any exported package-level func,
// type, var or const, or exported method, declared in a non-test file
// under internal/ that no non-test file of the module references —
// cmd/, examples/ and bench/ included. A method that satisfies an
// interface the module can see (its own, the standard library's, or an
// instantiation of a generic one) is exempt: it is called through that
// interface. Anything else with no caller is API a reader studies for
// nothing.
func TestEveryExportHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is not short")
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern expansion looks broken", len(pkgs))
	}

	uses := map[types.Object][]token.Pos{}
	ifaces := interfacesSeen(pkgs)
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			obj = originOf(obj)
			uses[obj] = append(uses[obj], id.Pos())
		}
	}

	seen := map[string]bool{}
	for _, p := range pkgs {
		if !strings.Contains(p.Path, "/internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range exportedDecls(f) {
				obj := p.Info.Defs[d.name]
				if obj == nil || calledOutside(uses[obj], d.span) {
					continue
				}
				if fn, ok := obj.(*types.Func); ok && satisfiesInterface(fn, ifaces) {
					continue
				}
				key := p.Types.Name() + "." + d.qual
				seen[key] = true
				if _, ok := exportAllowlist[key]; ok {
					continue
				}
				pos := p.Fset.Position(d.name.Pos())
				if rel, err := filepath.Rel(root, pos.Filename); err == nil {
					pos.Filename = rel
				}
				t.Errorf("%s: %s has no caller outside tests: delete it, move it into a _test.go file, or add it to exportAllowlist with a reason",
					pos, key)
			}
		}
	}
	for _, key := range sortedKeys(exportAllowlist) {
		if !seen[key] {
			t.Errorf("exportAllowlist entry %s is stale: it now has a caller or is gone", key)
		}
	}
}

// exportedDecl is one exported top-level declaration: its defining
// identifier, its name qualified by receiver type for methods, and the
// source span of the whole declaration (a self-reference inside it is
// not a caller).
type exportedDecl struct {
	name *ast.Ident
	qual string
	span [2]token.Pos
}

func exportedDecls(f *ast.File) []exportedDecl {
	var out []exportedDecl
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			qual := d.Name.Name
			if d.Recv != nil {
				qual = receiverName(d.Recv.List[0].Type) + "." + qual
			}
			out = append(out, exportedDecl{d.Name, qual, [2]token.Pos{d.Pos(), d.End()}})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, exportedDecl{s.Name, s.Name.Name, [2]token.Pos{s.Pos(), s.End()}})
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, exportedDecl{n, n.Name, [2]token.Pos{s.Pos(), s.End()}})
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName is the bare type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

func calledOutside(at []token.Pos, span [2]token.Pos) bool {
	for _, pos := range at {
		if pos < span[0] || pos >= span[1] {
			return true
		}
	}
	return false
}

// originOf maps a use of an instantiated generic func, method or field
// back to its declaration.
func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfacesSeen is every non-empty interface type the module can name:
// those declared at package level in the module and in every package it
// imports, transitively, and every interface — instantiated generic ones
// included — that appears in the type of a checked expression.
func interfacesSeen(pkgs []*lint.Package) []*types.Interface {
	var out []*types.Interface
	visited := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || visited[t] {
			return
		}
		visited[t] = true
		switch x := t.(type) {
		case *types.Named:
			if args := x.TypeArgs(); args != nil {
				for i := 0; i < args.Len(); i++ {
					walk(args.At(i))
				}
			}
			if x.TypeParams() == nil || x.TypeArgs() != nil {
				walk(x.Underlying())
			}
		case *types.Interface:
			if x.NumMethods() > 0 {
				out = append(out, x)
			}
		case *types.Pointer:
			walk(x.Elem())
		case *types.Slice:
			walk(x.Elem())
		case *types.Array:
			walk(x.Elem())
		case *types.Map:
			walk(x.Key())
			walk(x.Elem())
		case *types.Chan:
			walk(x.Elem())
		case *types.Signature:
			walk(x.Params())
			walk(x.Results())
		case *types.Tuple:
			for i := 0; i < x.Len(); i++ {
				walk(x.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < x.NumFields(); i++ {
				walk(x.Field(i).Type())
			}
		}
	}

	scanned := map[*types.Package]bool{}
	var scan func(*types.Package)
	scan = func(tp *types.Package) {
		if scanned[tp] {
			return
		}
		scanned[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				walk(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			scan(imp)
		}
	}
	for _, p := range pkgs {
		scan(p.Types)
		for _, tv := range p.Info.Types {
			walk(tv.Type)
		}
	}
	return out
}

// satisfiesInterface reports whether fn is a method whose receiver type
// implements some interface in ifaces that has a method of fn's name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams() != nil {
		return false
	}
	ptr := types.NewPointer(named)
	for _, iface := range ifaces {
		has := false
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(named, iface) || types.Implements(ptr, iface)) {
			return true
		}
	}
	return false
}
