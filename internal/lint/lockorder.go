package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrderAnalyzer checks mutex discipline on every path and builds a
// whole-repo lock-acquisition graph. Per function it tracks which
// mutexes (named by their receiver expression, "c.mu") are held and
// flags:
//
//   - a path that can reach a return while a Lock has neither been
//     Unlocked nor discharged by `defer mu.Unlock()`;
//   - re-locking a mutex already held on the same path (a guaranteed
//     self-deadlock with sync.Mutex; a recursive RLock is let through);
//   - an explicit Unlock while a deferred Unlock for the same mutex is
//     pending (the deferred one will then unlock an unlocked mutex).
//
// For the graph, mutexes are named by their owner: a receiver field
// lock is classed as "pkg.Type.field", a package-level lock as
// "pkg.var". Acquisitions made while another class is held become
// edges, extended through calls: when f calls g while holding A, every
// lock g (transitively) takes is ordered after A. After all packages
// are analyzed, a Finish pass condenses the graph with Tarjan's SCC and
// reports every cycle — the classic AB/BA inversion that deadlocks two
// goroutines — once, with the full cycle path.
var LockOrderAnalyzer = &Analyzer{
	Name:   "lockorder",
	Doc:    "no path exits holding a mutex; no lock-order cycles across the repo",
	Run:    lockOrderSpec.run,
	Finish: finishLockOrder,
}

var lockOrderSpec = &obSpec{
	name: "lockorder",
	acquire: func(pass *Pass, call *ast.CallExpr) (obAcquire, bool) {
		switch recv, method := syncMethod(pass, call); method {
		case "Lock":
			return obAcquire{src: method, recv: recv, class: lockClass(pass, recv), release: "Unlock"}, true
		case "RLock":
			return obAcquire{src: method, recv: recv, class: lockClass(pass, recv), release: "RUnlock", shared: true}, true
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
	// An acquire orders the new class after every class already held.
	onAcquire: func(pass *Pass, fn *types.Func, held obFacts, acq obAcquire, pos token.Pos) {
		if acq.class == "" {
			return
		}
		sum := lockSummaryOf(pass, fn)
		for _, from := range heldClasses(held) {
			if from != acq.class {
				sum.edges = append(sum.edges, lockEdge{from: from, to: acq.class, pos: pass.Pkg.Fset.Position(pos)})
			}
		}
		sum.acquires = append(sum.acquires, acq.class)
	},
	// A named call while classed locks are held orders everything the
	// callee (transitively) takes after them.
	onCall: func(pass *Pass, fn *types.Func, held obFacts, call *ast.CallExpr) {
		if callee := calleeFunc(pass.Pkg.Info, call); callee != nil {
			if classes := heldClasses(held); len(classes) > 0 {
				sum := lockSummaryOf(pass, fn)
				sum.calls = append(sum.calls, lockCall{callee: callee, held: classes, pos: pass.Pkg.Fset.Position(call.Pos())})
			}
		}
	},
}

// lockEdge is one ordered pair in the whole-repo acquisition graph:
// while `from` was held, `to` was acquired directly.
type lockEdge struct {
	from, to string
	pos      token.Position // eagerly resolved: Finish has no Fset
}

// lockCall records a callee invoked while classed locks were held.
type lockCall struct {
	callee *types.Func
	held   []string
	pos    token.Position
}

// lockSummary is what one declared function contributes to the global
// graph: the classes it locks itself, the direct held→acquired
// orderings in its body, and its calls made under lock. Function
// literals contribute none: their call sites are not resolvable by name.
type lockSummary struct {
	acquires []string
	edges    []lockEdge
	calls    []lockCall
}

const lockStateKey = "lockorder.summaries"

// lockSummaries is the cross-package accumulator kept in Pass.State.
func lockSummaries(pass *Pass) map[*types.Func]*lockSummary {
	s, ok := pass.State[lockStateKey].(map[*types.Func]*lockSummary)
	if !ok {
		s = map[*types.Func]*lockSummary{}
		pass.State[lockStateKey] = s
	}
	return s
}

func lockSummaryOf(pass *Pass, fn *types.Func) *lockSummary {
	all := lockSummaries(pass)
	if all[fn] == nil {
		all[fn] = &lockSummary{}
	}
	return all[fn]
}

// heldClasses lists the classes of the held locks, in key order.
func heldClasses(held obFacts) []string {
	var keys []string
	for k := range held {
		keys = append(keys, k.(string))
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		if c := held[k].class; c != "" {
			out = append(out, c)
		}
	}
	return out
}

// syncMethod resolves call to a Lock/Unlock/RLock/RUnlock method of
// package sync (Mutex, RWMutex, Locker) and returns the receiver
// expression and the method name; method is "" for any other call.
func syncMethod(pass *Pass, call *ast.CallExpr) (recv ast.Expr, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
		if fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			return sel.X, sel.Sel.Name
		}
	}
	return nil, ""
}

// lockClass names the lock for the global graph: receiver/struct field
// locks as "pkgpath.Type.field", package-level locks as "pkgpath.var".
// Locals and unclassifiable receivers return "".
func lockClass(pass *Pass, recv ast.Expr) string {
	info := pass.Pkg.Info
	switch e := ast.Unparen(recv).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return ""
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && !v.IsField() {
			// Package-level var (its parent scope is the package scope).
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
		return ""
	case *ast.SelectorExpr:
		sel, ok := info.Selections[e]
		if !ok {
			// Possibly pkg.var through an import.
			if id, isID := e.X.(*ast.Ident); isID {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					if v, isVar := info.Uses[e.Sel].(*types.Var); isVar && v.Pkg() != nil {
						return v.Pkg().Path() + "." + v.Name()
					}
				}
			}
			return ""
		}
		field, ok := sel.Obj().(*types.Var)
		if !ok || !field.IsField() {
			return ""
		}
		// Walk to the named type owning the field via the receiver
		// expression's type.
		t := sel.Recv()
		for {
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
				continue
			}
			break
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		obj := named.Obj()
		if obj.Pkg() == nil {
			return ""
		}
		return obj.Pkg().Path() + "." + obj.Name() + "." + field.Name()
	}
	return ""
}

// finishLockOrder assembles the whole-repo acquisition graph from the
// per-function summaries and reports every cycle.
func finishLockOrder(pass *Pass) {
	summaries := lockSummaries(pass)

	// Transitive acquires per function: fixpoint over the call graph.
	trans := map[*types.Func]map[string]bool{}
	for fn, sum := range summaries {
		set := map[string]bool{}
		for _, c := range sum.acquires {
			set[c] = true
		}
		trans[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn, sum := range summaries {
			set := trans[fn]
			for _, call := range sum.calls {
				calleeSet, ok := trans[call.callee]
				if !ok {
					continue
				}
				for c := range calleeSet {
					if !set[c] {
						set[c] = true
						changed = true
					}
				}
			}
		}
	}

	// Edge set: direct edges plus held-at-call × transitive-acquires.
	edges := map[string]map[string]token.Position{} // from → to → earliest witness
	addEdge := func(from, to string, pos token.Position) {
		if from == to {
			return
		}
		m := edges[from]
		if m == nil {
			m = map[string]token.Position{}
			edges[from] = m
		}
		if prev, ok := m[to]; !ok || less(pos, prev) {
			m[to] = pos
		}
	}
	fns := make([]*types.Func, 0, len(summaries))
	for fn := range summaries {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	for _, fn := range fns {
		sum := summaries[fn]
		for _, e := range sum.edges {
			addEdge(e.from, e.to, e.pos)
		}
		for _, call := range sum.calls {
			calleeSet, ok := trans[call.callee]
			if !ok {
				continue
			}
			acquired := make([]string, 0, len(calleeSet))
			for c := range calleeSet {
				acquired = append(acquired, c)
			}
			sort.Strings(acquired)
			for _, held := range call.held {
				for _, to := range acquired {
					if held == to {
						// Holding A and calling a function that (transitively)
						// locks A: self-deadlock through the call graph.
						pass.ReportAt(call.pos, "call to %s while holding %s, which it locks again (transitively): self-deadlock",
							call.callee.Name(), held)
						continue
					}
					addEdge(held, to, call.pos)
				}
			}
		}
	}

	reportLockCycles(pass, edges)
}

func less(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// reportLockCycles condenses the graph with Tarjan's SCC algorithm and
// reports one finding per non-trivial component, with a concrete cycle
// path as the witness.
func reportLockCycles(pass *Pass, edges map[string]map[string]token.Position) {
	nodes := make([]string, 0, len(edges))
	nodeSet := map[string]bool{}
	for from, tos := range edges {
		if !nodeSet[from] {
			nodeSet[from] = true
			nodes = append(nodes, from)
		}
		for to := range tos {
			if !nodeSet[to] {
				nodeSet[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(edges[v]))
		for to := range edges[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] {
				if index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				sccs = append(sccs, comp)
			}
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	for _, comp := range sccs {
		sort.Strings(comp)
		inComp := map[string]bool{}
		for _, n := range comp {
			inComp[n] = true
		}
		// Find a concrete cycle path starting from the lexicographically
		// first node, greedy by sorted successor order within the SCC.
		start := comp[0]
		path := []string{start}
		visited := map[string]bool{start: true}
		cur := start
		for {
			tos := make([]string, 0, len(edges[cur]))
			for to := range edges[cur] {
				if inComp[to] {
					tos = append(tos, to)
				}
			}
			sort.Strings(tos)
			if len(tos) == 0 {
				break
			}
			nextNode := tos[0]
			// Prefer closing the cycle back to start.
			for _, t := range tos {
				if t == start {
					nextNode = t
					break
				}
			}
			path = append(path, nextNode)
			if nextNode == start || visited[nextNode] {
				break
			}
			visited[nextNode] = true
			cur = nextNode
		}
		// Witness position: the earliest edge position in the component.
		var witness token.Position
		haveWitness := false
		for _, from := range comp {
			for to, pos := range edges[from] {
				if !inComp[to] {
					continue
				}
				if !haveWitness || less(pos, witness) {
					witness = pos
					haveWitness = true
				}
			}
		}
		if !haveWitness {
			continue
		}
		pass.ReportAt(witness, "lock-order cycle: %s — two goroutines taking these locks in different orders will deadlock", strings.Join(path, " -> "))
	}
}
