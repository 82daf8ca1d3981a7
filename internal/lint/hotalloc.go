package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// HotAllocAnalyzer polices the declared hot-path packages (internal/idx,
// internal/hz, internal/cache): inside loops it flags
// fmt.Sprintf/Sprint/Sprintln, string concatenation, and append to a
// slice declared without capacity — the allocation patterns whose
// removal bought the read path its 13.5x allocation win. The Sprintf
// check is interprocedural one level deep: calling a package-local
// function that itself formats with fmt (a key builder like BlockKey)
// from inside a loop is the same per-iteration allocation wearing a
// helper's name, and is flagged the same way. Code outside loops, and
// loops in other packages, are not the hot path and pass.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "no Sprintf (direct or via a local formatting helper), string concatenation, or unpreallocated append inside hot-path loops",
	Run:  runHotAlloc,
}

// hotPackages are the packages whose loops hotalloc polices. The
// testdata path keeps the fixture demonstrable from the driver:
// `nsdf-lint ./internal/lint/testdata/src/hotalloc` must exit 1 like
// every other fixture. testdata is never part of a ./... load, so it
// costs nothing on normal runs.
var hotPackages = []string{
	"nsdfgo/internal/idx", "nsdfgo/internal/hz", "nsdfgo/internal/cache",
	"nsdfgo/internal/lint/testdata/src/hotalloc",
}

// fmtAllocFuncs are the fmt formatters that always allocate their result.
var fmtAllocFuncs = map[string]bool{"Sprintf": true, "Sprint": true, "Sprintln": true}

func runHotAlloc(pass *Pass) {
	hot := false
	for _, p := range hotPackages {
		if pass.Pkg.Path == p {
			hot = true
		}
	}
	if !hot {
		return
	}
	info := pass.Pkg.Info
	formatters := localFormatters(pass)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inspectWithLoopDepth(fd.Body, func(n ast.Node, depth int) bool {
				if depth == 0 {
					return true
				}
				switch e := n.(type) {
				case *ast.CallExpr:
					if fn := calleeFunc(info, e); fn != nil {
						if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtAllocFuncs[fn.Name()] {
							pass.Reportf(e.Pos(), "fmt.%s inside a loop allocates per iteration; format outside the loop or write into a reused buffer", fn.Name())
						}
						if formatters[fn] {
							pass.Reportf(e.Pos(), "%s formats with fmt and allocates per iteration inside a loop; precompute the strings outside the loop", fn.Name())
						}
					}
					if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
						if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" {
							checkLoopAppend(pass, fd, e)
						}
					}
				case *ast.BinaryExpr:
					if e.Op == token.ADD && isStringExpr(info, e) && !isConstExpr(info, e) {
						pass.Reportf(e.OpPos, "string concatenation inside a loop allocates per iteration; use strings.Builder or preformat outside the loop")
					}
				case *ast.AssignStmt:
					if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringExpr(info, e.Lhs[0]) {
						pass.Reportf(e.TokPos, "string += inside a loop allocates per iteration; use strings.Builder")
					}
				}
				return true
			})
		}
	}
}

// localFormatters collects the package's functions and methods whose
// bodies call fmt.Sprintf/Sprint/Sprintln directly — one-level-deep
// formatting helpers whose every call allocates the formatted string.
func localFormatters(pass *Pass) map[*types.Func]bool {
	info := pass.Pkg.Info
	out := map[*types.Func]bool{}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			def, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "fmt" && fmtAllocFuncs[fn.Name()] {
					out[def] = true
				}
				return true
			})
		}
	}
	return out
}

// checkLoopAppend flags append calls in loops whose destination slice
// was declared in the same function with no capacity (var s []T,
// s := []T{}, or make([]T, 0)). Slices made with a capacity, function
// parameters, and non-local destinations are assumed preallocated or
// deliberate.
func checkLoopAppend(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	dest, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.Pkg.Info.Uses[dest]
	if obj == nil {
		obj = pass.Pkg.Info.Defs[dest]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if declaredWithoutCapacity(pass, fd, v) {
		pass.Reportf(call.Pos(), "append inside a loop to %q, declared without capacity; preallocate with make(T, 0, n)", dest.Name)
	}
}

// declaredWithoutCapacity locates v's declaration inside fd and reports
// whether it pins the slice to zero capacity.
func declaredWithoutCapacity(pass *Pass, fd *ast.FuncDecl, v *types.Var) bool {
	info := pass.Pkg.Info
	zeroCap := false
	ast.Inspect(fd, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.ValueSpec:
			for i, name := range d.Names {
				if info.Defs[name] != v {
					continue
				}
				if len(d.Values) == 0 {
					zeroCap = true // var s []T
				} else if i < len(d.Values) {
					zeroCap = zeroCapExpr(info, d.Values[i])
				}
			}
		case *ast.AssignStmt:
			if d.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range d.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || info.Defs[id] != v {
					continue
				}
				if len(d.Rhs) == len(d.Lhs) {
					zeroCap = zeroCapExpr(info, d.Rhs[i])
				}
			}
		}
		return true
	})
	return zeroCap
}

// zeroCapExpr reports whether expr evaluates to a slice that certainly
// has capacity zero: a nil literal, an empty composite literal, or
// make([]T, 0) with no capacity argument.
func zeroCapExpr(info *types.Info, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		if _, ok := info.Types[e].Type.Underlying().(*types.Slice); ok {
			return len(e.Elts) == 0
		}
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok || id.Name != "make" {
			return false
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			return false
		}
		if len(e.Args) != 2 {
			return false // 3-arg make states a capacity
		}
		tv, ok := info.Types[e.Args[1]]
		return ok && tv.Value != nil && tv.Value.Kind() == constant.Int &&
			constant.Compare(tv.Value, token.EQL, constant.MakeInt64(0))
	}
	return false
}

// isStringExpr reports whether expr has string type.
func isStringExpr(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// isConstExpr reports whether expr folds to a compile-time constant.
func isConstExpr(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	return ok && tv.Value != nil
}
