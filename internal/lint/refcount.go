package lint

import (
	"go/ast"
	"go/types"
)

// cachePackage is the block cache whose ref-counted Block refcount
// tracks.
const cachePackage = "nsdfgo/internal/cache"

// RefCountAnalyzer enforces the cache.Block ownership contract
// (DESIGN.md §11) on every path: a *cache.Block obtained from a call
// (cache Get/Peek/GetOrFill/Put, NewBlock, or any wrapper that returns
// one) or pinned with x.Acquire() carries one reference the function
// must discharge — by calling Release, deferring it, or transferring
// ownership (returning the block, passing it to a call that adopts
// it, storing it into a structure, sending it, or capturing it in a
// function literal). It reports leaks (a missed Release exhausts
// the buffer pool), double releases (a use-after-free against the
// pool) and any use of a released block, whose Bytes are by then
// recycled shared memory.
//
// After `blk, ok := c.Get(k)` the block is owed only on the ok branch,
// after `blk, _, err := GetOrFill(...)` only where err is nil, and a
// `blk != nil` test narrows the same way, so the miss-handling paths of
// the idx read pipeline need no annotations.
var RefCountAnalyzer = &Analyzer{
	Name: "refcount",
	Doc:  "every acquired cache.Block reference is released exactly once (or transferred) on every path",
	Run:  refCountSpec.run,
}

var refCountSpec = &obSpec{
	name: "refcount",
	acquire: func(pass *Pass, call *ast.CallExpr) (obAcquire, bool) {
		info := pass.Pkg.Info
		if recv := methodRecv(call, "Acquire"); recv != nil && isBlockPtr(info.Types[recv].Type) {
			return obAcquire{src: types.ExprString(recv) + ".Acquire", recv: recv}, true
		}
		if info.Types[call.Fun].IsType() {
			return obAcquire{}, false // a conversion, not a call
		}
		t := info.Types[call].Type
		if tup, ok := t.(*types.Tuple); ok {
			for i := 0; i < tup.Len(); i++ {
				if isBlockPtr(tup.At(i).Type()) {
					return obAcquire{src: callName(call)}, true
				}
			}
			return obAcquire{}, false
		}
		return obAcquire{src: callName(call)}, isBlockPtr(t)
	},
	holds:     isBlockPtr,
	discharge: func(_ *Pass, call *ast.CallExpr) ast.Expr { return methodRecv(call, "Release") },
	merge:     mergeAbandon,
	msg: obMessages{
		leak:            `Block "{name}" acquired from {src} can reach {arg} without Release: leaked reference`,
		discard:         `ref-counted Block from {src} is discarded: release it or hand it on`,
		discardBlank:    `ref-counted Block from {src} is discarded into _: release it or hand it on`,
		reassign:        `"{name}" is reassigned while still holding an unreleased Block acquired from {src}`,
		overwrite:       `"{name}" is overwritten ({arg}) while still holding an unreleased Block acquired from {src}`,
		doubleRelease:   `"{name}" is released twice (Block acquired from {src} at line {line})`,
		releaseDeferred: `"{name}" is released explicitly while a deferred Release is pending: double release at exit`,
		deferReleased:   `deferred Release of "{name}" runs after it was already released: double release`,
		deferTwice:      `"{name}" already has a deferred Release: double release at exit`,
		useStored:       `released Block "{name}" is stored here: use after Release`,
		useEscapes:      `released Block "{name}" escapes here: use after Release`,
		useField:        `field or method of released Block "{name}": use after Release`,
		useMethod:       `method {arg} called on released Block "{name}": use after Release`,
	},
}

// isBlockPtr reports whether t is *cache.Block.
func isBlockPtr(t types.Type) bool { return pointsTo(t, cachePackage, "Block") }
