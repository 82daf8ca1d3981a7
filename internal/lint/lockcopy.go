package lint

import (
	"go/ast"
	"go/types"
)

// LockCopyAnalyzer catches the classic sync mistake of passing or
// returning by value a struct that (transitively) contains a
// sync.Mutex or sync.RWMutex — the copy and the original then guard
// different state. Whether every Lock reaches its Unlock is lockorder's
// question, answered per path.
var LockCopyAnalyzer = &Analyzer{
	Name: "lockcopy",
	Doc:  "no mutex-holding structs by value",
	Run:  runLockCopy,
}

func runLockCopy(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkSignatureCopies(pass, fd)
		}
	}
}

// checkSignatureCopies flags receiver, parameter, and result variables
// whose by-value type contains a mutex.
func checkSignatureCopies(pass *Pass, fd *ast.FuncDecl) {
	fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	report := func(v *types.Var, role string) {
		if v == nil || !containsLock(v.Type(), make(map[types.Type]bool)) {
			return
		}
		name := v.Name()
		if name == "" {
			name = types.TypeString(v.Type(), types.RelativeTo(pass.Pkg.Types))
		}
		pass.Reportf(v.Pos(), "%s %q of %s carries a sync.Mutex by value; pass a pointer instead", role, name, fd.Name.Name)
	}
	report(sig.Recv(), "receiver")
	for i := 0; i < sig.Params().Len(); i++ {
		report(sig.Params().At(i), "parameter")
	}
	for i := 0; i < sig.Results().Len(); i++ {
		report(sig.Results().At(i), "result")
	}
}

// containsLock reports whether t, traversed by value (structs and
// arrays; pointers, slices, maps, channels, and interfaces are
// indirections and stop the walk), embeds a sync.Mutex or RWMutex.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch tt := t.(type) {
	case *types.Named:
		obj := tt.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
		return containsLock(tt.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			if containsLock(tt.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(tt.Elem(), seen)
	}
	return false
}
