// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and runs forward dataflow analyses over them (see
// dataflow.go). It is the foundation of the obligation engine in
// internal/lint (obligation.go: lockorder, ctxleak, spanend):
// an AST walk can only ask "does an End() appear somewhere in this
// function", a CFG-based analysis asks "is the obligation discharged
// on *every* path", with branches, short-circuit conditionals, loops,
// defer, and panic/return edges all modelled.
//
// The builder is pure syntax (go/ast only); analyzers bring their own
// go/types information when interpreting the nodes. Compound statements
// are decomposed so that a basic block's Nodes list contains only
// simple statements and atomic branch conditions:
//
//   - if/for conditions are split at && and || (short-circuit): each
//     atomic condition becomes the last node of its own block, and the
//     two outgoing edges carry the condition expression and the branch
//     polarity, so analyses can refine facts per branch (`if ok`,
//     `if err != nil`).
//   - a range statement appears as a single node in its head block
//     (analyses interpret Key/Value/X and must ignore its Body, which
//     is built into successor blocks).
//   - switch/type-switch tags and case expressions appear as expression
//     nodes; select communication clauses start their case blocks.
//   - return statements produce Return edges into the exit block,
//     explicit panic(...) calls produce Panic edges, and falling off
//     the end of the body produces a Return edge, so "can this function
//     exit while still owing an End/Unlock/cancel" is a question
//     about the exit block's predecessor edges.
//   - defer statements stay in their block as ordinary nodes.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
)

// EdgeKind classifies a control-flow edge.
type EdgeKind int

const (
	// Flow is an unconditional transfer (fallthrough, jump, loop back
	// edge, or the nondeterministic enter/skip pair of a range loop or
	// select).
	Flow EdgeKind = iota
	// Cond is a conditional transfer: Edge.Cond is the atomic condition
	// and Edge.Branch the value it takes along this edge.
	Cond
	// Return enters the exit block via a return statement or by falling
	// off the end of the function body.
	Return
	// Panic enters the exit block via an explicit panic(...) statement.
	Panic
)

// String names the edge kind for tests and diagnostics.
func (k EdgeKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Cond:
		return "cond"
	case Return:
		return "return"
	case Panic:
		return "panic"
	}
	return "unknown"
}

// Edge is one directed control-flow edge.
type Edge struct {
	From, To *Block
	Kind     EdgeKind
	// Cond is the atomic branch condition (Kind == Cond only).
	Cond ast.Expr
	// Branch is the value Cond takes along this edge.
	Branch bool
}

// Block is a basic block: a maximal run of simple statements and atomic
// condition expressions with a single entry and branching only at the
// end.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable, useful for
	// deterministic iteration and debugging).
	Index int
	// Nodes are the simple statements and atomic condition expressions
	// of the block, in execution order.
	Nodes []ast.Node
	// Succs and Preds are the outgoing and incoming edges.
	Succs []*Edge
	Preds []*Edge
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is the block control enters first.
	Entry *Block
	// Exit is the synthetic exit block: every Return and Panic edge
	// lands here. It has no nodes and no successors.
	Exit *Block
	// Blocks lists every block, Entry first; Exit is included.
	Blocks []*Block
}

// Build constructs the control-flow graph of one function body. Nested
// function literals are not descended into: a FuncLit is an ordinary
// expression here, and callers analyze its body as a separate graph.
func Build(body *ast.BlockStmt) (*Graph, error) {
	b := &builder{
		g:      &Graph{},
		labels: make(map[string]*Block),
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmt(body)
	// Falling off the end of the body is an implicit return.
	b.edge(b.g.Exit, Return, nil, false)
	for _, pg := range b.gotos {
		target, ok := b.labels[pg.label]
		if !ok {
			return nil, fmt.Errorf("cfg: goto %s has no label", pg.label)
		}
		b.connect(pg.from, target, Flow, nil, false)
	}
	if b.err != nil {
		return nil, b.err
	}
	return b.g, nil
}

// frame is one enclosing breakable construct (loop, switch, or select).
type frame struct {
	label string
	brk   *Block
	cont  *Block // non-nil only for loops
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g   *Graph
	cur *Block // nil while the current point is unreachable

	frames []*frame
	labels map[string]*Block
	gotos  []pendingGoto
	// pendingLabel is the label of the LabeledStmt being built, consumed
	// by the next loop/switch/select so `break L` / `continue L` resolve.
	pendingLabel string
	// fallthroughTo is the body block of the next switch case while a
	// case body is being built.
	fallthroughTo *Block

	err error
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// connect adds an edge between two specific blocks.
func (b *builder) connect(from, to *Block, kind EdgeKind, cond ast.Expr, branch bool) {
	e := &Edge{From: from, To: to, Kind: kind, Cond: cond, Branch: branch}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// edge adds an edge from the current block; a nil current block means
// the point is unreachable and the edge is dropped.
func (b *builder) edge(to *Block, kind EdgeKind, cond ast.Expr, branch bool) {
	if b.cur == nil {
		return
	}
	b.connect(b.cur, to, kind, cond, branch)
}

// add appends a node to the current block, materialising an unreachable
// block if needed so every statement exists somewhere in the graph.
func (b *builder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable code after return/panic/branch
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// takeLabel consumes the pending label for the construct being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) pushFrame(label string, brk, cont *Block) {
	b.frames = append(b.frames, &frame{label: label, brk: brk, cont: cont})
}

func (b *builder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

// findBreak resolves the target of a break statement.
func (b *builder) findBreak(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if label == "" || f.label == label {
			return f.brk
		}
	}
	return nil
}

// findContinue resolves the target of a continue statement.
func (b *builder) findContinue(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if f.cont != nil && (label == "" || f.label == label) {
			return f.cont
		}
	}
	return nil
}

// cond lowers a branch condition into the graph, splitting short-circuit
// operators so every Cond edge carries an atomic condition.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch ex := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if ex.Op == token.NOT {
			b.cond(ex.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch ex.Op {
		case token.LAND: // X && Y: Y evaluates only when X is true
			mid := b.newBlock()
			b.cond(ex.X, mid, f)
			b.cur = mid
			b.cond(ex.Y, t, f)
			return
		case token.LOR: // X || Y: Y evaluates only when X is false
			mid := b.newBlock()
			b.cond(ex.X, t, mid)
			b.cur = mid
			b.cond(ex.Y, t, f)
			return
		}
	}
	e = ast.Unparen(e)
	b.add(e)
	b.edge(t, Cond, e, true)
	b.edge(f, Cond, e, false)
	b.cur = nil
}

// isPanicCall recognises an explicit call to the panic builtin. This is
// syntactic: a local function named panic would be misclassified, which
// this repository does not do.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.IfStmt:
		b.stmt(s.Init)
		then := b.newBlock()
		done := b.newBlock()
		els := done
		if s.Else != nil {
			els = b.newBlock()
		}
		b.cond(s.Cond, then, els)
		b.cur = then
		b.stmt(s.Body)
		b.edge(done, Flow, nil, false)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else)
			b.edge(done, Flow, nil, false)
		}
		b.cur = done
	case *ast.ForStmt:
		label := b.takeLabel()
		b.stmt(s.Init)
		head := b.newBlock()
		body := b.newBlock()
		done := b.newBlock()
		b.edge(head, Flow, nil, false)
		b.cur = head
		if s.Cond != nil {
			b.cond(s.Cond, body, done)
		} else {
			b.edge(body, Flow, nil, false)
			b.cur = nil
		}
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.pushFrame(label, done, cont)
		b.cur = body
		b.stmt(s.Body)
		b.edge(cont, Flow, nil, false)
		b.popFrame()
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(head, Flow, nil, false)
		}
		b.cur = done
	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		body := b.newBlock()
		done := b.newBlock()
		b.edge(head, Flow, nil, false)
		b.cur = head
		b.add(s) // analyses interpret Key/Value/X only; Body is below
		b.edge(body, Flow, nil, false)
		b.edge(done, Flow, nil, false)
		b.pushFrame(label, done, head)
		b.cur = body
		b.stmt(s.Body)
		b.edge(head, Flow, nil, false)
		b.popFrame()
		b.cur = done
	case *ast.SwitchStmt:
		label := b.takeLabel()
		b.stmt(s.Init)
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(label, s.Body.List, true)
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		b.stmt(s.Init)
		b.add(s.Assign)
		b.switchClauses(label, s.Body.List, false)
	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		if head == nil {
			head = b.newBlock()
			b.cur = head
		}
		done := b.newBlock()
		b.pushFrame(label, done, nil)
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			cb := b.newBlock()
			b.connect(head, cb, Flow, nil, false)
			b.cur = cb
			b.stmt(comm.Comm) // nil for default
			for _, st := range comm.Body {
				b.stmt(st)
			}
			b.edge(done, Flow, nil, false)
		}
		b.popFrame()
		if len(s.Body.List) == 0 {
			b.cur = nil // empty select blocks forever
		} else {
			b.cur = done
		}
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.g.Exit, Return, nil, false)
		b.cur = nil
	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if to := b.findBreak(label); to != nil {
				b.edge(to, Flow, nil, false)
			} else if b.err == nil {
				b.err = fmt.Errorf("cfg: break outside breakable construct at offset %d", s.Pos())
			}
			b.cur = nil
		case token.CONTINUE:
			if to := b.findContinue(label); to != nil {
				b.edge(to, Flow, nil, false)
			} else if b.err == nil {
				b.err = fmt.Errorf("cfg: continue outside loop at offset %d", s.Pos())
			}
			b.cur = nil
		case token.GOTO:
			if b.cur != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			if b.fallthroughTo != nil {
				b.edge(b.fallthroughTo, Flow, nil, false)
			}
			b.cur = nil
		}
	case *ast.LabeledStmt:
		lb, ok := b.labels[s.Label.Name]
		if !ok {
			lb = b.newBlock()
			b.labels[s.Label.Name] = lb
		}
		b.edge(lb, Flow, nil, false)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.DeferStmt:
		b.add(s)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.g.Exit, Panic, nil, false)
			b.cur = nil
		}
	default:
		// Assignments, declarations, go/send/incdec statements, and
		// anything else without internal control flow.
		b.add(s)
	}
}

// switchClauses lowers the case clauses of a (type) switch: each clause
// body is its own block reachable from the dispatch point, with
// fallthrough edges between consecutive value-switch cases and a skip
// edge to the join when no default clause exists.
func (b *builder) switchClauses(label string, clauses []ast.Stmt, allowFallthrough bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	done := b.newBlock()
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		bodies[i] = b.newBlock()
		if len(cl.(*ast.CaseClause).List) == 0 {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.connect(head, done, Flow, nil, false)
	}
	b.pushFrame(label, done, nil)
	savedFT := b.fallthroughTo
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		b.connect(head, bodies[i], Flow, nil, false)
		b.cur = bodies[i]
		for _, e := range cc.List {
			b.add(e) // case expressions are evaluated (uses, not branches)
		}
		if allowFallthrough && i+1 < len(clauses) {
			b.fallthroughTo = bodies[i+1]
		} else {
			b.fallthroughTo = nil
		}
		for _, st := range cc.Body {
			b.stmt(st)
		}
		b.edge(done, Flow, nil, false)
	}
	b.fallthroughTo = savedFT
	b.popFrame()
	b.cur = done
}
