package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrderAnalyzer checks mutex discipline on every path and holds the
// repo to one lock at a time. Mutexes are named by their receiver
// expression ("c.mu"). It flags a path that can reach return holding a
// lock; a re-lock while held (a self-deadlock; a recursive RLock is let
// through); an explicit Unlock with a deferred one pending; a lock taken
// while a different one is held; and a static call made under a lock to
// a function that locks, itself or through its callees. With nothing
// ever locked under another lock there is no acquisition order, so no
// AB/BA inversion or longer cycle can form, and an interprocedural
// self-deadlock is a nested acquisition too. Which functions lock is
// known only once every package is read, so those calls are judged in
// Finish.
var LockOrderAnalyzer = &Analyzer{
	Name:   "lockorder",
	Doc:    "no path exits holding a mutex; no mutex is taken while another is held",
	Run:    runLockOrder,
	Finish: finishLockOrder,
}

var lockOrderSpec = &obSpec{
	name: "lockorder",
	acquire: func(pass *Pass, call *ast.CallExpr) (obAcquire, bool) {
		switch recv, method := syncMethod(pass, call); method {
		case "Lock":
			return obAcquire{src: method, recv: recv, release: "Unlock"}, true
		case "RLock":
			return obAcquire{src: method, recv: recv, release: "RUnlock", shared: true}, true
		}
		return obAcquire{}, false
	},
	discharge: func(pass *Pass, call *ast.CallExpr) ast.Expr {
		if recv, method := syncMethod(pass, call); method == "Unlock" || method == "RUnlock" {
			return recv
		}
		return nil
	},
	exprKeys: true,
	merge:    mergeIntersect,
	msg: obMessages{
		leak:            `{name} is locked here but a path can reach return without {release}`,
		reacquire:       `{name} is locked again while already held (locked at line {line}): self-deadlock`,
		releaseDeferred: `{name} is unlocked explicitly while a deferred unlock is pending: the deferred {release} will unlock an unlocked mutex`,
		deferTwice:      `{name} already has a deferred unlock: double unlock at exit`,
	},
	onAcquire: func(pass *Pass, held obFacts, acq obAcquire, pos token.Pos) {
		name := types.ExprString(acq.recv)
		if other, fact, ok := heldLock(held, name); ok {
			pass.Reportf(pos, "%s is locked while %s is held (locked at line %d); take one lock at a time",
				name, other, pass.Pkg.Fset.Position(fact.pos).Line)
		}
	},
	onCall: func(pass *Pass, held obFacts, call *ast.CallExpr) {
		if callee := calleeFunc(pass.Pkg.Info, call); callee != nil {
			if other, _, ok := heldLock(held, ""); ok {
				facts := lockFactsOf(pass)
				facts.calls = append(facts.calls, lockCall{callee: callee.Origin(), held: other, pos: pass.Pkg.Fset.Position(call.Pos())})
			}
		}
	},
}

// heldLock returns the earliest-locked held mutex other than except.
func heldLock(held obFacts, except string) (string, obFact, bool) {
	name, first := "", obFact{}
	for k, fact := range held {
		if k != except && (name == "" || fact.pos < first.pos) {
			name, first = k.(string), fact
		}
	}
	return name, first, name != ""
}

// lockCall is a static call made while the mutex held was locked; pos
// is resolved eagerly, since Finish has no Fset.
type lockCall struct {
	callee *types.Func
	held   string
	pos    token.Position
}

// lockFacts is gathered across packages in Pass.State: the static
// callees of every declared function, and every call made under a lock.
type lockFacts struct {
	callees map[*types.Func][]*types.Func
	calls   []lockCall
}

func lockFactsOf(pass *Pass) *lockFacts {
	f, ok := pass.State["lockorder"].(*lockFacts)
	if !ok {
		f = &lockFacts{callees: map[*types.Func][]*types.Func{}}
		pass.State["lockorder"] = f
	}
	return f
}

// runLockOrder runs the per-path spec, then records the static callees
// of each declared function: direct and deferred calls, which run before
// it returns, but not those of a goroutine or a function literal.
func runLockOrder(pass *Pass) {
	lockOrderSpec.run(pass)
	facts := lockFactsOf(pass)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncLit, *ast.GoStmt:
						return false
					case *ast.CallExpr:
						if callee := calleeFunc(pass.Pkg.Info, n); callee != nil {
							facts.callees[fn] = append(facts.callees[fn], callee.Origin())
						}
					}
					return true
				})
			}
		}
	}
}

// finishLockOrder marks every function that locks, seeded by the sync
// Lock and RLock methods and closed over the static calls, then reports
// each call made under a lock to one of them.
func finishLockOrder(pass *Pass) {
	facts := lockFactsOf(pass)
	locks := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for fn, callees := range facts.callees {
			for _, c := range callees {
				seed := c.Pkg() != nil && c.Pkg().Path() == "sync" && (c.Name() == "Lock" || c.Name() == "RLock")
				if !locks[fn] && (locks[c] || seed) {
					locks[fn], changed = true, true
				}
			}
		}
	}
	for _, c := range facts.calls {
		if locks[c.callee] {
			pass.ReportAt(c.pos, "call to %s while holding %s: %[1]s takes a lock (itself or through its callees); take one lock at a time", c.callee.Name(), c.held)
		}
	}
}

// syncMethod resolves call to a method of package sync (Mutex, RWMutex,
// Locker) that takes no arguments, and returns the receiver expression
// and the method name; method is "" for any other call.
func syncMethod(pass *Pass, call *ast.CallExpr) (recv ast.Expr, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if fn := calleeFunc(pass.Pkg.Info, call); ok && fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && len(call.Args) == 0 {
		return sel.X, fn.Name()
	}
	return nil, ""
}
