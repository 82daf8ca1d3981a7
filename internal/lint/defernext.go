package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// tracePackage is the span tracer whose Start* results must be ended.
const tracePackage = "nsdfgo/internal/telemetry/trace"

// SpanEndAnalyzer enforces the tracing contract /debug/traces depends
// on: a span that is never ended never reaches the collector, so the
// request it measured silently vanishes from /debug/traces and from the
// slow-request log. Every span minted by a Start-prefixed function of
// the trace package (trace.Start, Collector.StartTrace, ...) is assigned
// to a variable and ended by a defer on the very next statement.
var SpanEndAnalyzer = &Analyzer{
	Name: "spanend",
	Doc:  "every trace Start* span is ended by a defer on the next statement",
	Run: deferNext{
		pkg:        tracePackage,
		prefix:     "Start",
		holds:      func(t types.Type) bool { return pointsTo(t, tracePackage, "Span") },
		release:    func(call *ast.CallExpr) ast.Expr { return methodRecv(call, "End") },
		discard:    "span from %s is discarded: assign it and call End()",
		unassigned: "span from %s is not assigned to a variable by a statement of its own: assign it and defer End() on the next statement",
		undeferred: "span %q is not ended by a defer on the next statement: add `defer %[1]s.End()`",
	}.run,
}

// CtxLeakAnalyzer holds derived contexts to the same shape.
// context.WithCancel/WithTimeout/WithDeadline (and their Cause forms)
// each start a goroutine or arm a timer that stops only when the
// returned cancel function runs; an early return between the derivation
// and a later `defer cancel()` leaks it on every request. The cancel
// function is assigned to a variable and deferred by the very next
// statement. go vet's lostcancel pass checks cancels path by path too.
var CtxLeakAnalyzer = &Analyzer{
	Name: "ctxleak",
	Doc:  "every derived context's cancel is deferred by the next statement",
	Run: deferNext{
		pkg:    "context",
		prefix: "With",
		holds: func(t types.Type) bool {
			named, ok := t.(*types.Named)
			return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "context" &&
				(named.Obj().Name() == "CancelFunc" || named.Obj().Name() == "CancelCauseFunc")
		},
		release:    func(call *ast.CallExpr) ast.Expr { return call.Fun },
		discard:    "cancel function from %s is discarded: the derived context can never be cancelled",
		unassigned: "cancel function from %s is not assigned to a variable by a statement of its own: assign it and defer it on the next statement",
		undeferred: "cancel %q is not deferred by the next statement: add `defer %[1]s()`",
	}.run,
}

// deferNext is the rule both analyzers run: a call to a function of pkg
// named with prefix that returns a resource (a result holds accepts) is
// the only right-hand side of an assignment that binds the resource to
// a named variable, and the next statement of the same block defers a
// call releasing it, directly or inside a deferred function literal.
// Anything else — a discarded, returned, stored or passed result, a
// release later or only on some paths — is a finding.
type deferNext struct {
	pkg, prefix string
	holds       func(types.Type) bool
	// release returns the expression naming the resource a call
	// releases — the receiver of End, the called cancel function — or nil.
	release func(*ast.CallExpr) ast.Expr
	// The findings: each takes the rendered call, undeferred the
	// variable's name.
	discard, unassigned, undeferred string
}

func (r deferNext) run(pass *Pass) {
	// assigned marks the acquiring calls the statement lists have judged.
	assigned := map[*ast.CallExpr]bool{}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				r.stmts(pass, n.List, assigned)
			case *ast.CaseClause:
				r.stmts(pass, n.Body, assigned)
			case *ast.CommClause:
				r.stmts(pass, n.Body, assigned)
			case *ast.CallExpr:
				if _, ok := r.acquires(pass, n); ok && !assigned[n] {
					pass.Reportf(n.Pos(), r.unassigned, callName(n))
				}
			}
			return true
		})
	}
}

// stmts judges each acquiring statement of one list by the statement
// after it.
func (r deferNext) stmts(pass *Pass, list []ast.Stmt, assigned map[*ast.CallExpr]bool) {
	for i, s := range list {
		var lhs []ast.Expr
		var rhs ast.Expr
		switch s := s.(type) {
		case *ast.ExprStmt:
			rhs = s.X
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 {
				continue
			}
			lhs, rhs = s.Lhs, s.Rhs[0]
		default:
			continue
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		res, ok := r.acquires(pass, call)
		if !ok {
			continue
		}
		if lhs == nil || isBlank(lhs[res]) {
			assigned[call] = true
			pass.Reportf(call.Pos(), r.discard, callName(call))
			continue
		}
		id, ok := ast.Unparen(lhs[res]).(*ast.Ident)
		if !ok {
			continue // stored into a field or element: unassigned
		}
		assigned[call] = true
		if i+1 == len(list) || !r.deferred(pass, list[i+1], pass.Pkg.Info.ObjectOf(id)) {
			pass.Reportf(call.Pos(), r.undeferred, id.Name)
		}
	}
}

// acquires returns the index of the result of call that is the resource.
func (r deferNext) acquires(pass *Pass, call *ast.CallExpr) (int, bool) {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != r.pkg || !strings.HasPrefix(fn.Name(), r.prefix) {
		return 0, false
	}
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if r.holds(res.At(i).Type()) {
			return i, true
		}
	}
	return 0, false
}

// deferred reports whether s defers a call releasing v, directly or in
// the body of a deferred function literal.
func (r deferNext) deferred(pass *Pass, s ast.Stmt, v types.Object) bool {
	d, ok := s.(*ast.DeferStmt)
	if !ok {
		return false
	}
	releases := func(call *ast.CallExpr) bool {
		id, ok := ast.Unparen(r.release(call)).(*ast.Ident)
		return ok && pass.Pkg.Info.Uses[id] == v
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return releases(d.Call)
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && releases(call) {
			found = true
		}
		return !found
	})
	return found
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// callName renders an acquiring call for messages.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}

// pointsTo reports whether t is *pkgPath.name.
func pointsTo(t types.Type, pkgPath, name string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Name() == name && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkgPath
}

// methodRecv returns x when call is x.name() with no arguments.
func methodRecv(call *ast.CallExpr, name string) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == name && len(call.Args) == 0 {
		return sel.X
	}
	return nil
}
