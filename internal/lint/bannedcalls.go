package lint

import (
	"go/ast"
	"strings"
)

// CtxBackgroundAnalyzer polices the end-to-end context threading the
// serving path depends on: library packages must accept a caller's
// context.Context, not mint fresh roots with context.Background() or
// context.TODO(). A Background() deep in a library silently detaches
// everything below it from the caller's deadline and cancellation —
// exactly the bug class that let a disconnected dashboard client keep
// a worker pool fetching blocks. Package main (process entry points own
// the root context) and _test.go files are exempt; anything else needs
// an explicit allow comment naming ctxbackground, with a reason.
var CtxBackgroundAnalyzer = bannedCalls("ctxbackground",
	"library code must thread the caller's context, not call context.Background()/context.TODO()",
	"context", map[string]string{
		"Background": "context.Background() mints a root context in library code: accept a context.Context from the caller instead",
		"TODO":       "context.TODO() mints a root context in library code: accept a context.Context from the caller instead",
	})

// CtxHTTPAnalyzer polices outbound-request context threading, the
// tracing plane's transport: http.NewRequest builds a request with no
// context, so a peer call made with it ignores the caller's deadline
// and cancellation AND drops out of the trace — trace.Inject has no
// active span to read, and the remote span tree silently loses a
// branch. Library code must use http.NewRequestWithContext with the
// caller's context. Package main (an entry point may legitimately own
// a root request) and _test.go files are exempt; anything else needs
// an explicit allow comment naming ctxhttp, with a reason.
var CtxHTTPAnalyzer = bannedCalls("ctxhttp",
	"outbound requests must carry the caller's context: use http.NewRequestWithContext, not http.NewRequest",
	"net/http", map[string]string{
		"NewRequest": "http.NewRequest builds a context-free request that escapes deadlines and tracing: use http.NewRequestWithContext with the caller's context",
	})

// bannedCalls builds an analyzer that reports, in library code (not
// package main, not _test.go files), every call of a function of
// pkgPath named in messages, with that function's message.
func bannedCalls(name, doc, pkgPath string, messages map[string]string) *Analyzer {
	return &Analyzer{Name: name, Doc: doc, Run: func(pass *Pass) {
		if pass.Pkg.Types.Name() == "main" {
			return
		}
		for _, file := range pass.Pkg.Files {
			if strings.HasSuffix(pass.Pkg.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := calleeFunc(pass.Pkg.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath {
						if msg, banned := messages[fn.Name()]; banned {
							pass.Reportf(call.Pos(), "%s", msg)
						}
					}
				}
				return true
			})
		}
	}}
}
