package cache

import (
	"context"
	"errors"
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
	done chan struct{}
	// blk and err are written by the leader before done is closed and
	// are immutable afterwards.
	blk *Block
	err error
}

func newFillGroup() *fillGroup {
	return &fillGroup{calls: make(map[string]*fillCall)}
}

// do runs fn once per key across concurrent callers and hands every
// caller the leader's result. shared reports whether this caller
// piggybacked on another's fill. A waiter whose ctx expires before the
// fill completes returns the ctx error without waiting; the fill and
// the other waiters are unaffected. A fill that failed only because the
// leader's own ctx ended is not the waiters' failure: a waiter whose ctx
// is still live runs fn again as the new leader.
func (g *fillGroup) do(ctx context.Context, key string, fn func() (*Block, error)) (blk *Block, shared bool, err error) {
	for {
		g.mu.Lock()
		c, ok := g.calls[key]
		if !ok {
			break
		}
		g.mu.Unlock()
		select {
		case <-c.done:
			abandoned := errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)
			if !abandoned || ctx.Err() != nil {
				return c.blk, true, c.err
			}
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	c := &fillCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.blk, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.blk, false, c.err
}
