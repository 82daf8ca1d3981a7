package cache

import (
	"context"
	"sync"
)

// fillGroup deduplicates concurrent fills of the same key
// (singleflight): the first caller becomes the leader and runs the fill;
// callers that arrive while it is running wait for the leader's result
// instead of issuing their own backend fetch. Hand-rolled on the stdlib
// because the module vendors no dependencies.
type fillGroup struct {
	mu    sync.Mutex
	calls map[string]*fillCall
}

type fillCall struct {
	done     chan struct{}
	blk      *Block // carries one reference per registered waiter
	err      error
	finished bool
	nwait    int // waiters registered before completion
}

func newFillGroup() *fillGroup {
	return &fillGroup{calls: make(map[string]*fillCall)}
}

// do runs fn once per key across concurrent callers. The leader's Block
// (one reference) is returned to the leader; each waiter gets its own
// acquired reference to the same Block, so every non-error return hands
// the caller exactly one reference to release. shared reports whether
// this caller piggybacked on another's fill. A waiter whose ctx expires
// before the fill completes returns the ctx error without waiting.
func (g *fillGroup) do(ctx context.Context, key string, fn func() (*Block, error)) (blk *Block, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.nwait++
		g.mu.Unlock()
		select {
		case <-c.done:
			// The leader acquired nwait references on completion; claim
			// ours. No lock needed: blk/err are immutable after done.
			return c.blk, true, c.err
		case <-ctx.Done():
			// Abandon the fill; return the reference the leader set
			// aside for us (it counted nwait under the lock, so either it
			// has not completed yet and will see our decrement, or it has
			// and our reference is already acquired).
			g.mu.Lock()
			if c.finished {
				g.mu.Unlock()
				if c.err == nil {
					c.blk.Release()
				}
			} else {
				c.nwait--
				g.mu.Unlock()
			}
			return nil, false, ctx.Err()
		}
	}
	c := &fillCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	blk, err = fn()

	g.mu.Lock()
	c.blk, c.err = blk, err
	c.finished = true
	if err == nil {
		for i := 0; i < c.nwait; i++ {
			blk.Acquire()
		}
	}
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return blk, false, err
}
