package lint

import (
	"go/ast"
	"go/types"
)

// errScopePackages are the packages whose error returns must never be
// dropped, in addition to io.Closer-shaped methods and
// os.Remove/RemoveAll.
var errScopePackages = []string{"nsdfgo/internal/storage", "nsdfgo/internal/idx"}

// DroppedErrAnalyzer flags discarded error returns from the storage and
// IDX layers, io.Closer-shaped Close methods, and os.Remove/RemoveAll:
// a bare call statement, or an assignment sending every error result to
// the blank identifier, silently loses a failure the serving stack is
// supposed to surface. Deferred calls are exempt — `defer f.Close()` on
// a read path is the accepted cleanup idiom here — as is test code.
var DroppedErrAnalyzer = &Analyzer{
	Name: "droppederr",
	Doc:  "storage/idx/Closer error returns must not be discarded",
	Run:  runDroppedErr,
}

func runDroppedErr(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := scopedErrCallee(pass, call); fn != nil {
					pass.Reportf(call.Pos(), "error returned by %s is dropped (bare call)", calleeLabel(fn))
				}
			case *ast.AssignStmt:
				if len(stmt.Rhs) != 1 {
					return true
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := scopedErrCallee(pass, call)
				if fn == nil {
					return true
				}
				if allErrorsBlanked(info, stmt, call) {
					pass.Reportf(call.Pos(), "error returned by %s is dropped (assigned to _)", calleeLabel(fn))
				}
			}
			return true
		})
	}
}

// scopedErrCallee returns the called function when the call both returns
// an error and falls inside the droppederr scope; nil otherwise.
func scopedErrCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || !returnsError(fn) {
		return nil
	}
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		for _, scope := range errScopePackages {
			if path == scope {
				return fn
			}
		}
		if path == "os" && (fn.Name() == "Remove" || fn.Name() == "RemoveAll") {
			return fn
		}
	}
	if isCloserShaped(fn) {
		return fn
	}
	return nil
}

// returnsError reports whether any result of fn is the error type.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// isCloserShaped reports whether fn is a method named Close with no
// parameters and a single error result — the io.Closer shape.
func isCloserShaped(fn *types.Func) bool {
	if fn.Name() != "Close" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		isErrorType(sig.Results().At(0).Type())
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// allErrorsBlanked reports whether every error result of call lands in
// the blank identifier in stmt.
func allErrorsBlanked(info *types.Info, stmt *ast.AssignStmt, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	var resultTypes []types.Type
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			resultTypes = append(resultTypes, tuple.At(i).Type())
		}
	} else {
		resultTypes = []types.Type{tv.Type}
	}
	if len(stmt.Lhs) != len(resultTypes) {
		return false
	}
	sawError := false
	for i, t := range resultTypes {
		if !isErrorType(t) {
			continue
		}
		sawError = true
		id, ok := stmt.Lhs[i].(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return sawError
}

// calleeLabel renders a function as pkg.Func or (pkg.Type).Method for
// diagnostics.
func calleeLabel(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
