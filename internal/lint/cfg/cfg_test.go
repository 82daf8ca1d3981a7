package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as the body of a function and returns it.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body
}

func build(t *testing.T, body string) *Graph {
	t.Helper()
	g, err := Build(parseBody(t, body))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// exitEdges counts the exit block's incoming edges by kind.
func exitEdges(g *Graph) map[EdgeKind]int {
	out := map[EdgeKind]int{}
	for _, e := range g.Exit.Preds {
		out[e.Kind]++
	}
	return out
}

// reachable returns the blocks reachable from the entry.
func reachable(g *Graph) map[*Block]bool {
	seen := map[*Block]bool{g.Entry: true}
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range b.Succs {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// identBlock returns the reachable block that evaluates the bare
// identifier name as a condition.
func identBlock(t *testing.T, g *Graph, name string) *Block {
	t.Helper()
	for blk := range reachable(g) {
		for _, n := range blk.Nodes {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				return blk
			}
		}
	}
	t.Fatalf("no block evaluates %s", name)
	return nil
}

// useBlock returns the reachable block that runs the statement use(arg).
func useBlock(t *testing.T, g *Graph, arg string) *Block {
	t.Helper()
	for blk := range reachable(g) {
		for _, n := range blk.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			if call, ok := es.X.(*ast.CallExpr); ok && len(call.Args) == 1 {
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Value == arg {
					return blk
				}
			}
		}
	}
	t.Fatalf("no block runs use(%s)", arg)
	return nil
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.BinaryExpr:
		return exprString(x.X) + x.Op.String() + exprString(x.Y)
	case *ast.CallExpr:
		return exprString(x.Fun) + "()"
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	}
	return fmt.Sprintf("%T", e)
}

func TestIfElseDiamond(t *testing.T) {
	g := build(t, `
	x := 1
	if cond {
		x = 2
	} else {
		x = 3
	}
	use(x)`)
	head := identBlock(t, g, "cond")
	if len(head.Succs) != 2 {
		t.Fatalf("condition block has %d successors, want 2", len(head.Succs))
	}
	then, els := head.Succs[0].To, head.Succs[1].To
	if then == els || len(then.Succs) != 1 || len(els.Succs) != 1 || then.Succs[0].To != els.Succs[0].To {
		t.Error("then and else do not meet at one join block")
	}
	// Exactly one implicit return.
	if k := exitEdges(g); k[Return] != 1 || k[Panic] != 0 {
		t.Errorf("exit edges = %v, want one Return", k)
	}
}

// assertShortCircuit checks that b is evaluated only after a — its one
// predecessor edge comes from a's block — and that a's other edge goes
// straight to skip, so the outcome that decides without b never runs it.
func assertShortCircuit(t *testing.T, g *Graph, skip *Block) {
	t.Helper()
	a, b := identBlock(t, g, "a"), identBlock(t, g, "b")
	if len(b.Preds) != 1 || b.Preds[0].From != a {
		t.Fatalf("b has %d predecessor edges, want exactly one, from a's block", len(b.Preds))
	}
	if len(a.Succs) != 2 {
		t.Fatalf("a's block has %d successors, want 2", len(a.Succs))
	}
	other := a.Succs[0].To
	if other == b {
		other = a.Succs[1].To
	}
	if other != skip {
		t.Errorf("a's other edge goes to block %d, want block %d, skipping b", other.Index, skip.Index)
	}
}

// TestShortCircuitAnd proves `a && b` is decomposed: b is evaluated
// only on one of a's edges, and the other goes past the body.
func TestShortCircuitAnd(t *testing.T) {
	g := build(t, `
	if a && b {
		use(1)
	}
	use(2)`)
	assertShortCircuit(t, g, useBlock(t, g, "2"))
}

// TestShortCircuitOrNot proves `!a || b` routes correctly: b is
// evaluated only on one of a's edges, and the other enters the body.
func TestShortCircuitOrNot(t *testing.T) {
	g := build(t, `
	if !a || b {
		use(1)
	}`)
	assertShortCircuit(t, g, useBlock(t, g, "1"))
}

// TestForLoopBackEdge proves a for loop has a back edge to its head and
// that continue/break target post and done respectively.
func TestForLoopBackEdge(t *testing.T) {
	g := build(t, `
	for i := 0; i < n; i++ {
		if skip {
			continue
		}
		if stop {
			break
		}
		use(i)
	}
	use(0)`)
	// Find the head: the block whose last node is the condition i<n.
	var head *Block
	for blk := range reachable(g) {
		for _, n := range blk.Nodes {
			if be, ok := n.(*ast.BinaryExpr); ok && exprString(be) == "i<n" {
				head = blk
			}
		}
	}
	if head == nil {
		t.Fatal("no condition block for i < n")
	}
	// The head must be on a cycle: some path from its successors leads
	// back to it.
	onCycle := false
	var walk func(b *Block, seen map[*Block]bool)
	walk = func(b *Block, seen map[*Block]bool) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, e := range b.Succs {
			if e.To == head {
				onCycle = true
				return
			}
			walk(e.To, seen)
		}
	}
	for _, e := range head.Succs {
		walk(e.To, map[*Block]bool{})
	}
	if !onCycle {
		t.Error("loop body has no back edge to the condition head")
	}
	if k := exitEdges(g); k[Return] != 1 {
		t.Errorf("exit edges = %v, want exactly one implicit Return", k)
	}
}

// TestRangeLoop proves the range statement lands in its head block with
// both an enter and a skip edge, and the body loops back.
func TestRangeLoop(t *testing.T) {
	g := build(t, `
	for _, v := range xs {
		use(v)
	}
	use(0)`)
	var head *Block
	for blk := range reachable(g) {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				head = blk
			}
		}
	}
	if head == nil {
		t.Fatal("range statement not in any reachable block")
	}
	if len(head.Succs) != 2 {
		t.Fatalf("range head has %d successors, want 2 (enter, skip)", len(head.Succs))
	}
	backEdge := false
	for _, e := range head.Succs {
		for _, e2 := range e.To.Succs {
			if e2.To == head {
				backEdge = true
			}
		}
	}
	if !backEdge {
		t.Error("range body has no back edge to the head")
	}
}

// TestReturnAndPanicEdges proves returns and explicit panics produce
// distinct edge kinds into the exit block.
func TestReturnAndPanicEdges(t *testing.T) {
	g := build(t, `
	if bad {
		panic("bad")
	}
	if done {
		return
	}
	use(1)`)
	k := exitEdges(g)
	// One explicit return, one implicit (fall off the end), one panic.
	if k[Panic] != 1 {
		t.Errorf("want 1 Panic exit edge, got %d", k[Panic])
	}
	if k[Return] != 2 {
		t.Errorf("want 2 Return exit edges (explicit + implicit), got %d", k[Return])
	}
}

// TestDeferCollection proves defer statements stay in their blocks as
// ordinary nodes.
func TestDeferCollection(t *testing.T) {
	g := build(t, `
	defer use(1)
	if cond {
		defer use(2)
	}
	use(3)`)
	found := 0
	for blk := range reachable(g) {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				found++
			}
		}
	}
	if found != 2 {
		t.Errorf("want both defers as block nodes, found %d", found)
	}
}

// TestUnreachableAfterReturn proves code after a return lands in a
// dangling block with no predecessors rather than being lost.
func TestUnreachableAfterReturn(t *testing.T) {
	g := build(t, `
	return
	use(1)`)
	r := reachable(g)
	found := false
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok && exprString(call.Fun) == "use" {
					found = true
					if r[blk] {
						t.Error("statement after return is reachable")
					}
					if len(blk.Preds) != 0 {
						t.Error("unreachable block has predecessors")
					}
				}
			}
		}
	}
	if !found {
		t.Error("statement after return missing from the graph")
	}
}

// TestGotoAndLabels proves goto edges resolve to their labels and that
// an unresolved goto is a build error, not a panic.
func TestGotoAndLabels(t *testing.T) {
	g := build(t, `
	i := 0
loop:
	i++
	if i < n {
		goto loop
	}
	use(i)`)
	// The labelled block must have at least two predecessors: fall-in
	// and the goto.
	var labelBlock *Block
	for blk := range reachable(g) {
		for _, n := range blk.Nodes {
			if inc, ok := n.(*ast.IncDecStmt); ok && exprString(inc.X) == "i" {
				labelBlock = blk
			}
		}
	}
	if labelBlock == nil {
		t.Fatal("labelled statement not found")
	}
	if len(labelBlock.Preds) < 2 {
		t.Errorf("label block has %d preds, want >= 2 (fall-in + goto)", len(labelBlock.Preds))
	}

	if _, err := Build(parseBody(t, "goto nowhere")); err == nil {
		t.Error("unresolved goto did not error")
	} else if !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("error does not name the label: %v", err)
	}
}

// TestSwitchWithFallthrough proves value-switch cases connect to the
// dispatch point, fallthrough links consecutive bodies, and a missing
// default adds a skip edge.
func TestSwitchWithFallthrough(t *testing.T) {
	g := build(t, `
	switch x {
	case 1:
		use(1)
		fallthrough
	case 2:
		use(2)
	}
	use(3)`)
	case1, case2 := useBlock(t, g, "1"), useBlock(t, g, "2")
	linked := false
	for _, e := range case1.Succs {
		if e.To == case2 {
			linked = true
		}
	}
	if !linked {
		t.Error("fallthrough does not link case 1 to case 2")
	}
}

// parityAnalysis is a minimal dataflow client: it tracks whether
// variable x is "set" (assigned a value) and exercises Join at merges
// and fixpoint over loops.
type parityAnalysis struct{}

// parityFact: 0 unknown, 1 set, 2 maybe (merge of set/unset).
type parityFact int

func (parityAnalysis) Entry() parityFact { return 0 }
func (parityAnalysis) Transfer(f parityFact, n ast.Node) parityFact {
	if as, ok := n.(*ast.AssignStmt); ok {
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "x" {
			return 1
		}
	}
	return f
}
func (parityAnalysis) Join(a, b parityFact) parityFact {
	if a == b {
		return a
	}
	return 2
}
func (parityAnalysis) Equal(a, b parityFact) bool { return a == b }

// TestForwardFixpoint proves Forward joins at merges and converges over
// a loop: x is assigned only on one branch, so the merged exit fact is
// "maybe".
func TestForwardFixpoint(t *testing.T) {
	g := build(t, `
	for i := 0; i < n; i++ {
		if cond {
			x := 1
			use(x)
		}
	}
	use(0)`)
	res, err := Forward[parityFact](g, parityAnalysis{})
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	got, reached := res.In[g.Exit]
	if !reached {
		t.Fatal("exit not reached")
	}
	if got != 2 {
		t.Errorf("exit fact = %d, want 2 (maybe: set on one path only)", got)
	}
}
