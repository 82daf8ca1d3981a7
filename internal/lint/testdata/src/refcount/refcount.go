// Package refcount is a lint fixture: every violation below is asserted
// by internal/lint's golden-file tests. It exercises the flow-sensitive
// cache.Block ownership analyzer over branches, loops, defers, and
// ownership transfers.
package refcount

import (
	"context"
	"errors"

	"nsdfgo/internal/cache"
)

// leakOnBranch releases on the happy path but returns early without
// releasing on the error branch — must fire (leak-on-branch).
func leakOnBranch(c *cache.Tiered, key string, fail bool) ([]byte, error) {
	blk, ok := c.Get(key) // want: can reach return without Release
	if !ok {
		return nil, errors.New("miss")
	}
	if fail {
		return nil, errors.New("boom") // blk still owned here
	}
	out := append([]byte(nil), blk.Bytes()...)
	blk.Release()
	return out, nil
}

// doubleRelease releases the same reference twice — must fire.
func doubleRelease(c *cache.Tiered, key string) {
	blk, ok := c.Get(key)
	if !ok {
		return
	}
	blk.Release()
	blk.Release() // want: released twice
}

// useAfterRelease touches the payload after giving the buffer back to
// the pool — must fire.
func useAfterRelease(c *cache.Tiered, key string) int {
	blk, ok := c.Get(key)
	if !ok {
		return 0
	}
	blk.Release()
	return blk.Len() // want: use after Release
}

// discarded drops the only reference on the floor — must fire.
func discarded(c *cache.Tiered, key string, data []byte) {
	c.Put(key, data) // want: discarded
}

// releaseAfterDefer releases explicitly with a deferred Release already
// pending, so the deferred one double-frees at exit — must fire.
func releaseAfterDefer(c *cache.Tiered, key string) []byte {
	blk, ok := c.Get(key)
	if !ok {
		return nil
	}
	defer blk.Release()
	out := append([]byte(nil), blk.Bytes()...)
	blk.Release() // want: deferred Release pending
	return out
}

// deferClean is the canonical correct shape: nothing to report.
func deferClean(c *cache.Tiered, key string) []byte {
	blk, ok := c.Get(key)
	if !ok {
		return nil
	}
	defer blk.Release()
	return append([]byte(nil), blk.Bytes()...)
}

// deferClosureClean discharges through a deferred closure: nothing to
// report.
func deferClosureClean(c *cache.Tiered, key string) int {
	blk, ok := c.Get(key)
	if !ok {
		return 0
	}
	defer func() { blk.Release() }()
	return blk.Len()
}

// errGuardClean follows the GetOrFill error-guard idiom: the block is
// owned only where err is nil, and that path releases. Nothing to
// report.
func errGuardClean(ctx context.Context, c *cache.Tiered, key string, fill func(context.Context) ([]byte, error)) (int, error) {
	blk, _, err := c.GetOrFill(ctx, key, fill)
	if err != nil {
		return 0, err
	}
	n := blk.Len()
	blk.Release()
	return n, nil
}

// nilGuardClean releases under an explicit nil check: nothing to
// report.
func nilGuardClean(c *cache.Tiered, key string) {
	blk, _ := c.Get(key)
	if blk != nil {
		blk.Release()
	}
}

// transferClean hands the reference to a callee, which adopts it:
// nothing to report (ownership transferred at the call).
func transferClean(adopt func(string, *cache.Block), c *cache.Tiered, key string) {
	blk, ok := c.Get(key)
	if !ok {
		return
	}
	adopt(key, blk)
}

// returnClean transfers the reference to the caller: nothing to report.
func returnClean(c *cache.Tiered, key string) *cache.Block {
	blk, ok := c.Get(key)
	if !ok {
		return nil
	}
	return blk
}

// loopClean acquires and releases once per iteration: the back edge
// carries no obligation, nothing to report.
func loopClean(c *cache.Tiered, keys []string) int {
	total := 0
	for _, key := range keys {
		blk, ok := c.Get(key)
		if !ok {
			continue
		}
		total += blk.Len()
		blk.Release()
	}
	return total
}

// immediateClean releases the call result in the same statement chain:
// nothing to report (no variable ever holds the obligation — the call
// result is the receiver of Release directly).
func immediateClean(c *cache.Tiered, key string, data []byte) {
	c.Put(key, data).Release()
}

// workerSelectClean mirrors the idx fetch worker: each block is either
// sent onward (ownership moves to the receiver) or released when the
// context dies mid-send. Nothing to report.
func workerSelectClean(ctx context.Context, c *cache.Tiered, keys []string, results chan<- *cache.Block) {
	for _, key := range keys {
		blk, ok := c.Get(key)
		if !ok {
			continue
		}
		select {
		case results <- blk:
		case <-ctx.Done():
			if blk != nil {
				blk.Release()
			}
			return
		}
	}
}

// mapStoreClean mirrors the volume reader: blocks collected into a map
// are owned by it, and a deferred closure sweeps the map at exit.
// Nothing to report.
func mapStoreClean(c *cache.Tiered, keys []string) int {
	blocks := make(map[int]*cache.Block, len(keys))
	defer func() {
		for _, blk := range blocks {
			blk.Release()
		}
	}()
	for i, key := range keys {
		blk, ok := c.Get(key)
		if !ok {
			continue
		}
		blocks[i] = blk
	}
	total := 0
	for _, blk := range blocks {
		total += blk.Len()
	}
	return total
}

// escapeHatch shows the suppression path: without the allow comment the
// analyzer would flag blk as leaked, since `_ = blk` neither releases
// nor transfers it.
func escapeHatch(c *cache.Tiered, key string) {
	//lint:allow refcount released by an async completion callback
	blk, ok := c.Get(key)
	_ = ok
	_ = blk
}
