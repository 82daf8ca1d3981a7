package cfg

import (
	"fmt"
	"go/ast"
)

// Analysis is a forward dataflow problem over a Graph. F is the fact
// type flowing along edges; it must behave as a value (Transfer and Join
// must not mutate their inputs). The lattice must be finite in
// height for the fixpoint to converge; Forward enforces a step budget as
// a backstop and reports non-convergence as an error instead of looping.
type Analysis[F any] interface {
	// Entry is the fact at function entry.
	Entry() F
	// Transfer flows a fact through one block node (a simple statement
	// or an atomic condition expression).
	Transfer(fact F, n ast.Node) F
	// Join merges the facts of two incoming edges at a merge point.
	Join(a, b F) F
	// Equal reports whether two facts are equal (fixpoint detection).
	Equal(a, b F) bool
}

// Result holds the converged facts of one Forward run.
type Result[F any] struct {
	// In and Out are the facts at block entry and exit; only blocks
	// reachable from Entry are present. The fact flowing along an edge is
	// its source block's Out.
	In, Out map[*Block]F
}

// Forward runs the analysis to fixpoint with a worklist, joining facts
// at merge points and iterating loops until stable. The step budget
// scales with graph size; exceeding it means the analysis lattice is
// not converging (an analyzer bug), reported as an error so the driver
// can fail loudly instead of hanging.
func Forward[F any](g *Graph, a Analysis[F]) (*Result[F], error) {
	r := &Result[F]{In: make(map[*Block]F), Out: make(map[*Block]F)}
	r.In[g.Entry] = a.Entry()
	queue := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	budget := (len(g.Blocks) + 1) * 64
	for steps := 0; len(queue) > 0; steps++ {
		if steps > budget {
			return nil, fmt.Errorf("cfg: dataflow did not converge within %d steps over %d blocks", budget, len(g.Blocks))
		}
		b := queue[0]
		queue = queue[1:]
		queued[b] = false

		out := r.In[b]
		for _, n := range b.Nodes {
			out = a.Transfer(out, n)
		}
		if prev, ok := r.Out[b]; ok && a.Equal(prev, out) {
			continue
		}
		r.Out[b] = out
		for _, e := range b.Succs {
			in, seen := r.In[e.To]
			if seen {
				joined := a.Join(in, out)
				if a.Equal(joined, in) {
					continue
				}
				r.In[e.To] = joined
			} else {
				r.In[e.To] = out
			}
			if !queued[e.To] {
				queued[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return r, nil
}
