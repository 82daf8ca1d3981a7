package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"nsdfgo/internal/lint/cfg"
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
//
// It is the suite's one flow-sensitive analysis: per function body that
// locks, a forward dataflow over the internal/lint/cfg graph computes
// the set of mutexes held at each point, intersected where paths merge
// (conditional locking pairs with an equally conditional unlock). The
// converged facts are replayed once with reporting on, and every Return
// edge is checked for a mutex still held without a deferred unlock.
// Paths that exit by panicking are not checked: the deferred unlocks run
// during the unwind and the process is dying anyway.
var LockOrderAnalyzer = &Analyzer{
	Name:   "lockorder",
	Doc:    "no path exits holding a mutex; no mutex is taken while another is held",
	Run:    runLockOrder,
	Finish: finishLockOrder,
}

// lockFact is what one path knows about one held mutex.
type lockFact struct {
	pos      token.Pos // the Lock or RLock call
	shared   bool      // read-locked
	deferred bool      // a deferred unlock runs at exit
}

func (f lockFact) release() string {
	if f.shared {
		return "RUnlock"
	}
	return "Unlock"
}

// heldLocks maps each held mutex, by receiver expression, to its fact.
type heldLocks map[string]lockFact

// heldLock returns the earliest-locked held mutex other than except.
func heldLock(held heldLocks, except string) (string, lockFact, bool) {
	name, first := "", lockFact{}
	for k, fact := range held {
		if k != except && (name == "" || fact.pos < first.pos) {
			name, first = k, fact
		}
	}
	return name, first, name != ""
}

// lockFlow is the dataflow problem over one function body; it
// implements cfg.Analysis over heldLocks. Transfer works on f, cloned on
// the first write (own), so the facts handed in are never mutated.
type lockFlow struct {
	pass   *Pass
	report bool

	f   heldLocks
	own bool
}

func (a *lockFlow) Entry() heldLocks { return heldLocks{} }

func (a *lockFlow) Equal(x, y heldLocks) bool { return maps.Equal(x, y) }

// Join keeps a mutex held only if both paths hold it, and its unlock
// deferred only if both paths deferred it.
func (a *lockFlow) Join(x, y heldLocks) heldLocks {
	out := make(heldLocks, len(x))
	for k, vx := range x {
		if vy, both := y[k]; both {
			if vx.deferred && !vy.deferred {
				vx = vy
			}
			out[k] = vx
		}
	}
	return out
}

func (a *lockFlow) write() {
	if !a.own {
		a.f, a.own = maps.Clone(a.f), true
	}
}

// Transfer flows facts through one CFG node: a simple statement or an
// atomic condition. Function literals are their own bodies, and a
// goroutine runs on its own stack at its own time, so neither is under
// this path's locks.
func (a *lockFlow) Transfer(f heldLocks, n ast.Node) heldLocks {
	a.f, a.own = f, false
	switch s := n.(type) {
	case *ast.DeferStmt:
		a.deferStmt(s)
	case *ast.GoStmt:
	case *ast.RangeStmt:
		a.calls(s.X) // the body is built into the blocks that follow
	default:
		a.calls(n)
	}
	return a.f
}

func (a *lockFlow) calls(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			a.call(n)
		}
		return true
	})
}

// call applies one call: an unlock, a lock, or any other call, which is
// recorded for Finish when a lock is held.
func (a *lockFlow) call(call *ast.CallExpr) {
	if key, ok := unlocked(a.pass, call); ok {
		if fact, ok := a.f[key]; ok {
			if fact.deferred {
				a.reportf(call.Pos(), "%s is unlocked explicitly while a deferred unlock is pending: the deferred %s will unlock an unlocked mutex", key, fact.release())
			}
			a.write()
			delete(a.f, key)
		}
		return
	}
	if recv, method := syncMethod(a.pass, call); method == "Lock" || method == "RLock" {
		key, shared := types.ExprString(recv), method == "RLock"
		if prior, ok := a.f[key]; ok && !(prior.shared && shared) {
			a.reportf(call.Pos(), "%s is locked again while already held (locked at line %d): self-deadlock", key, a.line(prior.pos))
		}
		if other, fact, ok := heldLock(a.f, key); ok {
			a.reportf(call.Pos(), "%s is locked while %s is held (locked at line %d); take one lock at a time", key, other, a.line(fact.pos))
		}
		a.write()
		a.f[key] = lockFact{pos: call.Pos(), shared: shared}
		return
	}
	if callee := calleeFunc(a.pass.Pkg.Info, call); a.report && callee != nil {
		if other, _, ok := heldLock(a.f, ""); ok {
			facts := lockFactsOf(a.pass)
			facts.calls = append(facts.calls, lockCall{callee: callee.Origin(), held: other, pos: a.pass.Pkg.Fset.Position(call.Pos())})
		}
	}
}

// deferStmt: `defer mu.Unlock()` and a deferred closure that unlocks mu
// both unlock it at exit.
func (a *lockFlow) deferStmt(s *ast.DeferStmt) {
	calls := []*ast.CallExpr{s.Call}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		calls = nil
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				calls = append(calls, call)
			}
			return true
		})
	}
	done := map[string]bool{}
	for _, call := range calls {
		key, ok := unlocked(a.pass, call)
		if fact, held := a.f[key]; ok && held && !done[key] {
			done[key] = true
			if fact.deferred {
				a.reportf(s.Call.Pos(), "%s already has a deferred unlock: double unlock at exit", key)
			}
			fact.deferred = true
			a.write()
			a.f[key] = fact
		}
	}
}

func (a *lockFlow) reportf(pos token.Pos, format string, args ...any) {
	if a.report {
		a.pass.Reportf(pos, format, args...)
	}
}

func (a *lockFlow) line(pos token.Pos) int { return a.pass.Pkg.Fset.Position(pos).Line }

// checkLocks analyses one function body: CFG, fixpoint, reporting replay,
// and the leak check on the return edges.
func checkLocks(pass *Pass, body *ast.BlockStmt) {
	g, err := cfg.Build(body)
	if err != nil {
		pass.InternalErrorf("%v", err)
		return
	}
	a := &lockFlow{pass: pass}
	res, err := cfg.Forward[heldLocks](g, a)
	if err != nil {
		pass.InternalErrorf("%v", err)
		return
	}
	// Findings come from one replay over the converged facts, never from
	// a transient state of the iteration.
	a.report = true
	for _, b := range g.Blocks {
		if f, ok := res.In[b]; ok {
			for _, n := range b.Nodes {
				f = a.Transfer(f, n)
			}
		}
	}
	leaked := map[string]bool{}
	for _, e := range g.Exit.Preds {
		if e.Kind != cfg.Return {
			continue
		}
		for key, fact := range res.Out[e.From] {
			if !fact.deferred && !leaked[key] {
				leaked[key] = true
				pass.Reportf(fact.pos, "%s is locked here but a path can reach return without %s", key, fact.release())
			}
		}
	}
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

// runLockOrder checks every function body that locks — each declared
// function and each function literal is its own — then records the
// static callees of each declared function: direct and deferred calls,
// which run before it returns, but not those of a goroutine or a
// function literal.
func runLockOrder(pass *Pass) {
	var visit func(body *ast.BlockStmt)
	visit = func(body *ast.BlockStmt) {
		locks := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				visit(n.Body)
				return false
			case *ast.CallExpr:
				_, method := syncMethod(pass, n)
				locks = locks || method == "Lock" || method == "RLock"
			}
			return true
		})
		if locks {
			checkLocks(pass, body)
		}
	}
	facts := lockFactsOf(pass)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncLit:
				visit(fn.Body)
				return false
			case *ast.FuncDecl:
				if fn.Body == nil {
					return false
				}
				visit(fn.Body)
				decl, _ := pass.Pkg.Info.Defs[fn.Name].(*types.Func)
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncLit, *ast.GoStmt:
						return false
					case *ast.CallExpr:
						if callee := calleeFunc(pass.Pkg.Info, n); callee != nil {
							facts.callees[decl] = append(facts.callees[decl], callee.Origin())
						}
					}
					return true
				})
				return false
			}
			return true
		})
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

// unlocked returns the mutex call unlocks, if it is an Unlock or RUnlock.
func unlocked(pass *Pass, call *ast.CallExpr) (string, bool) {
	if recv, method := syncMethod(pass, call); method == "Unlock" || method == "RUnlock" {
		return types.ExprString(recv), true
	}
	return "", false
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
