package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"nsdfgo/internal/lint/cfg"
)

// This file is the one flow-sensitive analysis in the suite: a resource
// acquired by a call must be discharged on every path. ctxleak, spanend
// and the per-path half of lockorder are three obSpec values run
// through it; a new obligation is a new spec, not a new analyzer
// (TestObligationIsASpec). Per function body the engine builds the CFG
// (once per package, shared by the specs), runs the forward fixpoint
// over obFacts, replays the converged facts once with reporting on, and
// checks every Return edge for resources still owed. Paths that exit by
// panicking are not checked: the deferred discharges run during the
// unwind and the process is dying anyway.

// obState is what one path knows about one resource.
type obState uint8

// A discharged resource has no state: its fact is dropped, so a mutex
// may be locked again and a second cancel() or End() is just a call.
// Where two paths disagree the larger state wins: a deferred discharge
// counts only if both paths deferred it, and a hand-off on either path
// ends the obligation.
const (
	obDeferred obState = iota + 1 // a deferred discharge runs at exit
	obOwed                        // a discharge is owed on this path
	obEscaped                     // handed on (returned, stored, passed, sent, captured): someone else's obligation
)

// obMerge is what a merge point does with a resource only one of the
// two incoming paths knows. The two rules differ for a reason each.
type obMerge uint8

const (
	// mergeKeepOwed: discharged (or never acquired) on one path, owed on
	// the other, stays owed, so the owing path is reported at exit.
	// Right where a second discharge is harmless (cancel functions and
	// Span.End are idempotent): demanding one more never asks for a bug.
	mergeKeepOwed obMerge = iota
	// mergeIntersect: a resource is in the set after a merge only if
	// held on both paths — conditional locking pairs with an equally
	// conditional unlock.
	mergeIntersect
)

// obAcquire describes one acquiring call.
type obAcquire struct {
	// src renders the call for messages ("trace.Start", "context.WithCancel").
	src string
	// recv, when set, is the receiver the obligation lands on
	// (mu.Lock()); otherwise it lands on the results obSpec.holds accepts.
	recv ast.Expr
	// class, release and shared are lockorder's: the lock's name in the
	// whole-repo graph, the method that unlocks it, and read mode.
	class, release string
	shared         bool
}

// obFact is the fact for one resource; it is a value and comparable.
type obFact struct {
	state          obState
	pos            token.Pos // the acquiring call
	src            string
	class, release string
	shared         bool
}

// obFacts maps a resource — a variable's types.Object, or with
// obSpec.exprKeys the rendered receiver expression — to its fact.
type obFacts map[any]obFact

func (f obFacts) clone() obFacts {
	out := make(obFacts, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// obMessages are a spec's finding templates; an empty one means the
// event is not a finding for that resource. Placeholders: {name} the
// variable or receiver, {src} and {line} the acquiring call and its
// line, {release} the unlocking method, {arg} the return a leak reaches.
type obMessages struct {
	leak            string // owed on a return edge; {arg} names the return
	discard         string // resource result dropped: call used as a statement, or assigned to _
	reassign        string // acquired again into a variable that still owes
	overwrite       string // a variable that still owes is overwritten
	reacquire       string // receiver acquired while already held
	releaseDeferred string // discharged explicitly with a deferred discharge pending
	deferTwice      string // discharge deferred twice
}

// obSpec is one obligation: what acquires the resource, what discharges
// it, how disagreeing paths merge, and what the findings say.
type obSpec struct {
	// name is the analyzer the findings are reported under.
	name string
	// acquire reports whether call acquires a resource.
	acquire func(pass *Pass, call *ast.CallExpr) (obAcquire, bool)
	// holds reports whether a value of type t is the resource: it picks
	// the results an acquiring call binds and the variables an alias
	// assignment moves the obligation to. Receiver-only specs leave it nil.
	holds func(t types.Type) bool
	// discharge returns the expression naming the resource that call
	// discharges — the receiver of End/Unlock, or the called
	// cancel variable — or nil.
	discharge func(pass *Pass, call *ast.CallExpr) ast.Expr
	// exprKeys keys resources by the rendered receiver expression
	// ("c.mu"): mutexes are fields, not local variables.
	exprKeys bool
	merge    obMerge
	msg      obMessages
	// onAcquire and onCall feed lockorder's whole-repo summary: they see
	// the converged facts at every receiver acquire and at every other
	// call in a declared function, during the reporting replay only.
	onAcquire func(pass *Pass, fn *types.Func, held obFacts, acq obAcquire, pos token.Pos)
	onCall    func(pass *Pass, fn *types.Func, held obFacts, call *ast.CallExpr)
}

// obligationSpecs is every obligation the suite checks, in Analyzers()
// order.
var obligationSpecs = []*obSpec{spanEndSpec, lockOrderSpec, ctxLeakSpec}

// run is the Analyzer.Run of a spec: every declared function and every
// function literal is its own flow problem, and one that contains no
// acquiring call owes nothing and needs no CFG.
func (s *obSpec) run(pass *Pass) {
	var visit func(body *ast.BlockStmt, ft *ast.FuncType, fn *types.Func)
	visit = func(body *ast.BlockStmt, ft *ast.FuncType, fn *types.Func) {
		mentions := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				visit(n.Body, n.Type, nil)
				return false
			case *ast.CallExpr:
				if !mentions {
					_, mentions = s.acquire(pass, n)
				}
			}
			return true
		})
		if mentions {
			s.check(pass, body, ft, fn)
		}
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					obj, _ := pass.Pkg.Info.Defs[fn.Name].(*types.Func)
					visit(fn.Body, fn.Type, obj)
				}
				return false
			case *ast.FuncLit:
				visit(fn.Body, fn.Type, nil)
				return false
			}
			return true
		})
	}
}

// check analyses one function body: CFG, fixpoint, reporting replay,
// leak check on the return edges.
func (s *obSpec) check(pass *Pass, body *ast.BlockStmt, ft *ast.FuncType, fn *types.Func) {
	g, err := pass.Pkg.graph(body)
	if err != nil {
		pass.InternalErrorf("%v", err)
		return
	}
	a := &obFlow{pass: pass, spec: s, fn: fn}
	if ft.Results != nil {
		for _, field := range ft.Results.List {
			for _, name := range field.Names {
				a.namedResults = append(a.namedResults, pass.Pkg.Info.Defs[name])
			}
		}
	}
	res, err := cfg.Forward[obFacts](g, a)
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
	// A resource owed on a return edge leaks; name the first such return.
	type leak struct {
		key  any
		fact obFact
		line int
	}
	leaks := map[any]leak{}
	for _, e := range g.Exit.Preds {
		f, ok := res.EdgeFact(e)
		if e.Kind != cfg.Return || !ok {
			continue
		}
		line := 0
		if n := len(e.From.Nodes); n > 0 {
			line = pass.Pkg.Fset.Position(e.From.Nodes[n-1].Pos()).Line
		}
		for key, fact := range f {
			if prev, seen := leaks[key]; fact.state == obOwed && (!seen || line < prev.line) {
				leaks[key] = leak{key, fact, line}
			}
		}
	}
	ordered := make([]leak, 0, len(leaks))
	for _, l := range leaks {
		ordered = append(ordered, l)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].fact.pos < ordered[j].fact.pos })
	for _, l := range ordered {
		where := "a return"
		if l.line > 0 {
			where = "the return at line " + strconv.Itoa(l.line)
		}
		a.reportf(l.fact.pos, s.msg.leak, l.key, l.fact, where)
	}
}

// graph returns the control-flow graph of one function body, built once
// per package and shared by every spec that analyses the body.
func (p *Package) graph(body *ast.BlockStmt) (*cfg.Graph, error) {
	if g, ok := p.graphs[body]; ok {
		return g, nil
	}
	g, err := cfg.Build(body)
	if err != nil {
		return nil, err
	}
	if p.graphs == nil {
		p.graphs = map[*ast.BlockStmt]*cfg.Graph{}
	}
	p.graphs[body] = g
	return g, nil
}

// obFlow is the dataflow problem of one spec over one function body; it
// implements cfg.Analysis over obFacts. Transfer works on f, cloned on
// the first write (own), so the facts handed in are never mutated.
type obFlow struct {
	pass         *Pass
	spec         *obSpec
	fn           *types.Func    // the declared function; nil inside a function literal
	namedResults []types.Object // transferred to the caller by a bare return
	report       bool

	f   obFacts
	own bool
}

func (a *obFlow) Entry() obFacts { return obFacts{} }

func (a *obFlow) Equal(x, y obFacts) bool {
	if len(x) != len(y) {
		return false
	}
	for k, v := range x {
		if w, ok := y[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// Join merges two paths: of two facts of one resource the larger state
// wins (see obState), and a resource only one path knows stays (its
// obligation wins) except under mergeIntersect.
func (a *obFlow) Join(x, y obFacts) obFacts {
	intersect := a.spec.merge == mergeIntersect
	out := make(obFacts, len(x))
	for k, vx := range x {
		vy, both := y[k]
		if both && vy.state > vx.state {
			vx = vy
		}
		if both || !intersect {
			out[k] = vx
		}
	}
	if !intersect {
		for k, vy := range y {
			if _, ok := x[k]; !ok {
				out[k] = vy
			}
		}
	}
	return out
}

// Refine is cfg.Analysis's hook for conditional edges; no condition
// decides an obligation.
func (a *obFlow) Refine(f obFacts, _ ast.Expr, _ bool) obFacts { return f }

func (a *obFlow) put(key any, fact obFact) {
	if !a.own {
		a.f, a.own = a.f.clone(), true
	}
	a.f[key] = fact
}

// escape hands the resource on, if it is tracked and still ours.
func (a *obFlow) escape(key any) {
	if fact, ok := a.f[key]; ok && fact.state < obEscaped {
		fact.state = obEscaped
		a.put(key, fact)
	}
}

func (a *obFlow) drop(key any) {
	if !a.own {
		a.f, a.own = a.f.clone(), true
	}
	delete(a.f, key)
}

func (a *obFlow) reportf(pos token.Pos, tmpl string, key any, fact obFact, arg string) {
	if !a.report || tmpl == "" {
		return
	}
	name := ""
	switch k := key.(type) {
	case string:
		name = k
	case types.Object:
		name = k.Name()
	}
	a.pass.Reportf(pos, "%s", strings.NewReplacer(
		"{name}", name,
		"{src}", fact.src,
		"{line}", strconv.Itoa(a.pass.Pkg.Fset.Position(fact.pos).Line),
		"{release}", fact.release,
		"{arg}", arg,
	).Replace(tmpl))
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// obj resolves an identifier expression to its variable; nil for
// anything else and for the blank identifier.
func (a *obFlow) obj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := a.pass.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return a.pass.Pkg.Info.Defs[id]
}

// tracked resolves e to a variable the facts know.
func (a *obFlow) tracked(e ast.Expr) (types.Object, obFact, bool) {
	obj := a.obj(e)
	fact, ok := a.f[obj]
	return obj, fact, ok && obj != nil
}

// recvKey is the resource a receiver expression names, or nil.
func (a *obFlow) recvKey(e ast.Expr) any {
	if a.spec.exprKeys {
		return types.ExprString(e)
	}
	if obj := a.obj(e); obj != nil {
		return obj
	}
	return nil
}

// discharged reports which tracked resource call discharges.
func (a *obFlow) discharged(call *ast.CallExpr) (any, bool) {
	recv := a.spec.discharge(a.pass, call)
	if recv == nil {
		return nil, false
	}
	key := a.recvKey(recv)
	_, ok := a.f[key]
	return key, ok && key != nil
}

// Transfer flows facts through one CFG node: a simple statement or an
// atomic condition.
func (a *obFlow) Transfer(f obFacts, n ast.Node) obFacts {
	a.f, a.own = f, false
	switch s := n.(type) {
	case *ast.AssignStmt:
		a.assign(s.Lhs, s.Rhs)
	case *ast.DeferStmt:
		a.deferStmt(s)
	case *ast.GoStmt:
		// The goroutine runs on its own stack at its own time: what it
		// mentions is its to discharge, and it acquires nothing here.
		a.escapeMentioned(s.Call, nil)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			a.scan(res, true)
		}
		if len(s.Results) == 0 {
			for _, obj := range a.namedResults {
				a.escape(obj)
			}
		}
	case *ast.RangeStmt:
		a.scan(s.X, false)
		a.kill(s.Key)
		a.kill(s.Value)
	case *ast.SendStmt:
		a.scan(s.Chan, false)
		a.scan(s.Value, true)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if acq, ok := a.spec.acquire(a.pass, call); ok && acq.recv == nil {
				a.reportf(call.Pos(), a.spec.msg.discard, nil, obFact{src: acq.src}, "")
			}
		}
		a.scan(s.X, false)
	case *ast.IncDecStmt:
		a.scan(s.X, false)
	case *ast.DeclStmt:
		// `var x, err = f()` is `x, err := f()`.
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					a.assign(lhs, vs.Values)
				}
			}
		}
	case ast.Expr:
		a.scan(s, false)
	}
	return a.f
}

// assign handles the acquiring assignment, alias moves, stores and
// overwrites.
func (a *obFlow) assign(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			if acq, ok := a.spec.acquire(a.pass, call); ok && acq.recv == nil {
				a.bind(lhs, call, acq)
				return
			}
		}
	}
	if len(lhs) != len(rhs) {
		for _, r := range rhs {
			a.scan(r, false)
		}
		for _, l := range lhs {
			a.overwrite(l)
		}
		return
	}
	for i, r := range rhs {
		src, fact, ok := a.tracked(r)
		if !ok {
			a.scan(r, false)
			a.overwrite(lhs[i])
			continue
		}
		dst := a.obj(lhs[i])
		switch {
		case isBlank(lhs[i]):
			// `_ = x` quiets the compiler; it neither discharges nor hands on.
		case dst != nil && a.spec.holds(dst.Type()):
			// Alias: the obligation follows the new name.
			a.kill(lhs[i])
			a.put(dst, fact)
			a.escape(src)
		default:
			// Stored into a field, element or interface: the structure owns it.
			a.escape(src)
		}
	}
}

// overwrite is a plain assignment to l: a variable loses its fact, any
// other target is walked for uses (m[key(x)] = v).
func (a *obFlow) overwrite(l ast.Expr) {
	if _, isIdent := ast.Unparen(l).(*ast.Ident); isIdent {
		a.kill(l)
	} else {
		a.scan(l, false)
	}
}

// kill forgets an overwritten variable; losing one that still owes is a
// finding.
func (a *obFlow) kill(l ast.Expr) {
	if obj, fact, ok := a.tracked(l); ok {
		if fact.state == obOwed {
			a.reportf(l.Pos(), a.spec.msg.overwrite, obj, fact, "")
		}
		a.drop(obj)
	}
}

// bind is the acquiring assignment: each result that is the resource
// starts an obligation on the variable receiving it.
func (a *obFlow) bind(lhs []ast.Expr, call *ast.CallExpr, acq obAcquire) {
	a.scan(call, false)
	fact := obFact{state: obOwed, pos: call.Pos(), src: acq.src}
	for i, l := range lhs {
		if !a.spec.holds(resultType(a.pass, call, i, len(lhs))) {
			continue
		}
		obj := a.obj(l)
		switch {
		case isBlank(l):
			a.reportf(call.Pos(), a.spec.msg.discard, nil, fact, "")
		case obj == nil:
			// A field or element receives it: the structure owns it.
		default:
			if old, ok := a.f[obj]; ok && old.state == obOwed {
				a.reportf(l.Pos(), a.spec.msg.reassign, obj, old, "")
			}
			a.put(obj, fact)
		}
	}
}

// resultType is the type of result i of call when n results are bound.
func resultType(pass *Pass, call *ast.CallExpr, i, n int) types.Type {
	t := pass.Pkg.Info.Types[call].Type
	if tup, ok := t.(*types.Tuple); ok {
		if i < tup.Len() {
			return tup.At(i).Type()
		}
		return nil
	}
	if n == 1 {
		return t
	}
	return nil
}

// deferStmt: `defer x.End()` and a deferred closure that discharges
// x both discharge it at exit; whatever else a deferred call mentions
// is handed to it.
func (a *obFlow) deferStmt(s *ast.DeferStmt) {
	if key, ok := a.discharged(s.Call); ok {
		a.deferDischarge(key, s.Call.Pos())
		return
	}
	lit, ok := s.Call.Fun.(*ast.FuncLit)
	if !ok {
		a.escapeMentioned(s.Call, nil)
		return
	}
	done := map[any]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if key, ok := a.discharged(call); ok && !done[key] {
				done[key] = true
				a.deferDischarge(key, s.Call.Pos())
			}
		}
		return true
	})
	a.escapeMentioned(lit, done)
}

func (a *obFlow) deferDischarge(key any, pos token.Pos) {
	fact := a.f[key]
	if fact.state == obDeferred {
		a.reportf(pos, a.spec.msg.deferTwice, key, fact, "")
	}
	fact.state = obDeferred
	a.put(key, fact)
}

// escapeMentioned hands every tracked variable mentioned under n
// (except those in skip) to whoever runs n later: a closure, a
// goroutine, a deferred call.
func (a *obFlow) escapeMentioned(n ast.Node, skip map[any]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := a.pass.Pkg.Info.Uses[id]; obj != nil && !skip[obj] {
				a.escape(obj)
			}
		}
		return true
	})
}

// scan walks an expression for uses of tracked variables. escape marks
// the value-flow positions — call arguments, composite elements, sent
// and returned values — where a variable hands its obligation on.
func (a *obFlow) scan(e ast.Expr, escape bool) {
	switch ex := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := a.obj(ex); obj != nil && escape {
			a.escape(obj)
		}
	case *ast.CallExpr:
		a.call(ex)
	case *ast.UnaryExpr:
		a.scan(ex.X, escape || ex.Op == token.AND) // &x aliases x
	case *ast.StarExpr:
		a.scan(ex.X, escape)
	case *ast.TypeAssertExpr:
		a.scan(ex.X, escape)
	case *ast.SelectorExpr:
		a.scan(ex.X, false) // a field or method of x is a use, not a hand-off
	case *ast.BinaryExpr:
		a.scan(ex.X, false)
		a.scan(ex.Y, false)
	case *ast.IndexExpr:
		a.scan(ex.X, false)
		a.scan(ex.Index, false)
	case *ast.SliceExpr:
		for _, x := range [...]ast.Expr{ex.X, ex.Low, ex.High, ex.Max} {
			a.scan(x, false)
		}
	case *ast.CompositeLit:
		for _, el := range ex.Elts {
			a.scan(el, true)
		}
	case *ast.KeyValueExpr:
		a.scan(ex.Value, true)
	case *ast.FuncLit:
		a.escapeMentioned(ex, nil)
	}
}

// call applies one call: a discharge, an acquire onto the receiver, or
// any other call, whose arguments are handed to the callee.
func (a *obFlow) call(call *ast.CallExpr) {
	if key, ok := a.discharged(call); ok {
		if fact := a.f[key]; fact.state == obDeferred {
			a.reportf(call.Pos(), a.spec.msg.releaseDeferred, key, fact, "")
		}
		a.drop(key)
		return
	}
	if acq, ok := a.spec.acquire(a.pass, call); ok && acq.recv != nil {
		if key := a.recvKey(acq.recv); key != nil {
			if prior, ok := a.f[key]; ok && !(prior.shared && acq.shared) {
				a.reportf(call.Pos(), a.spec.msg.reacquire, key, prior, "")
			}
			if a.report && a.fn != nil && a.spec.onAcquire != nil {
				a.spec.onAcquire(a.pass, a.fn, a.f, acq, call.Pos())
			}
			a.put(key, obFact{state: obOwed, pos: call.Pos(), src: acq.src, class: acq.class, release: acq.release, shared: acq.shared})
			return
		}
	}
	if a.report && a.fn != nil && a.spec.onCall != nil {
		a.spec.onCall(a.pass, a.fn, a.f, call)
	}
	a.scan(call.Fun, false)
	for _, arg := range call.Args {
		a.scan(arg, true)
	}
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
