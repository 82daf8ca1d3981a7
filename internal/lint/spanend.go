package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// tracePackage is the span tracer whose Start* results must be ended.
const tracePackage = "nsdfgo/internal/telemetry/trace"

// SpanEndAnalyzer enforces the tracing contract /debug/traces depends
// on: every span minted by a Start-prefixed function of the trace
// package (trace.Start, Collector.StartTrace, ...) must be ended on
// every path of the function that started it — a `defer span.End()`,
// or an End() on each path to a return. A span that is never ended
// never reaches the collector, so the request it measured silently
// vanishes from /debug/traces and from the slow-request log.
//
// A span that escapes the function (returned, stored, handed to
// another call, captured by a closure) transfers the obligation and is
// not reported. Discarding the span result (`_` or an expression
// statement) is reported: an un-endable span is always a leak.
var SpanEndAnalyzer = &Analyzer{
	Name: "spanend",
	Doc:  "every trace Start* call must have a deferred or all-paths End() in the starting function",
	Run:  spanEndSpec.run,
}

var spanEndSpec = &obSpec{
	name: "spanend",
	acquire: func(pass *Pass, call *ast.CallExpr) (obAcquire, bool) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !strings.HasPrefix(sel.Sel.Name, "Start") {
			return obAcquire{}, false
		}
		fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != tracePackage {
			return obAcquire{}, false
		}
		res := fn.Type().(*types.Signature).Results()
		for i := 0; i < res.Len(); i++ {
			if isSpanType(res.At(i).Type()) {
				return obAcquire{src: callName(call)}, true
			}
		}
		return obAcquire{}, false
	},
	holds:     isSpanType,
	discharge: func(_ *Pass, call *ast.CallExpr) ast.Expr { return methodRecv(call, "End") },
	merge:     mergeKeepOwed,
	msg: obMessages{
		leak:    "span \"{name}\" is started but never ended on all paths: add `defer {name}.End()`",
		discard: `span from {src} is discarded: assign it and call End()`,
	},
}

// isSpanType reports whether t is *trace.Span.
func isSpanType(t types.Type) bool { return pointsTo(t, tracePackage, "Span") }
