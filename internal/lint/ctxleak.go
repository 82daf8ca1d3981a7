package lint

import (
	"go/ast"
	"go/types"
)

// CtxLeakAnalyzer flags derived contexts whose cancel function is not
// called on every path. context.WithCancel/WithTimeout/WithDeadline
// each start a goroutine (or arm a timer) that only stops when the
// returned CancelFunc runs; a path that returns without calling it —
// typically an early error return between the derivation and the
// `defer cancel()` — leaks that goroutine on every request. This is
// exactly the bug class the hedged-read path in internal/shard invites:
// a per-attempt WithCancel whose cancel is skipped when the winning
// response returns early.
//
// Calling the cancel variable (directly or in a deferred closure) or
// deferring it discharges the obligation; passing it to a call,
// returning it, storing it into a structure, or capturing it in a
// function literal hands it on. `_ = cancel` does neither.
var CtxLeakAnalyzer = &Analyzer{
	Name: "ctxleak",
	Doc:  "cancel functions of derived contexts are called on every path",
	Run:  ctxLeakSpec.run,
}

var ctxLeakSpec = &obSpec{
	name: "ctxleak",
	acquire: func(pass *Pass, call *ast.CallExpr) (obAcquire, bool) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return obAcquire{}, false
		}
		switch sel.Sel.Name {
		case "WithCancel", "WithTimeout", "WithDeadline", "WithCancelCause", "WithTimeoutCause", "WithDeadlineCause":
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			return obAcquire{src: "context." + sel.Sel.Name}, ok && fn.Pkg() != nil && fn.Pkg().Path() == "context"
		}
		return obAcquire{}, false
	},
	holds: func(t types.Type) bool {
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "context" {
			return false
		}
		return named.Obj().Name() == "CancelFunc" || named.Obj().Name() == "CancelCauseFunc"
	},
	// The cancel variable discharges itself by being called.
	discharge: func(_ *Pass, call *ast.CallExpr) ast.Expr { return call.Fun },
	merge:     mergeKeepOwed,
	msg: obMessages{
		leak:       `context derived by {src} can reach return without {name} being called: goroutine/timer leak`,
		discard:    `cancel function from {src} is discarded: the derived context can never be cancelled`,
		reassign:   `"{name}" is reassigned while the previous cancel from {src} was never called`,
		overwrite:  `"{name}" is overwritten while the cancel from {src} was never called`,
		deferTwice: `"{name}" is deferred twice`,
	},
}
