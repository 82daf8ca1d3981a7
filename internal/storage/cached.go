package storage

import (
	"context"

	"nsdfgo/internal/cache"
)

// Cached wraps a Store with a read-through cache.Tiered: Get misses fall
// through to the inner store with concurrent fetches for the same key
// coalesced onto one flight, and writes (Put/Delete) invalidate the
// cached entry so readers never see stale payloads. Because the Store
// contract hands ownership of returned slices to the caller, Get copies
// the cached block's payload out; the zero-copy fast path is reserved for
// the idx read pipeline, which consumes cache.Blocks directly.
//
// Layer it between the instrumentation and the backend so cache hits skip
// the (possibly remote, WAN-conditioned) inner store entirely:
//
//	store := storage.NewInstrumented(storage.NewCached(inner, tiered), reg, "seal")
type Cached struct {
	inner Store
	cache *cache.Tiered
}

// NewCached wraps inner with the given tiered cache.
func NewCached(inner Store, c *cache.Tiered) *Cached {
	return &Cached{inner: inner, cache: c}
}

// Get implements Store. Errors (including ErrNotExist) are never cached:
// the next Get for the key retries the inner store.
func (c *Cached) Get(ctx context.Context, key string) ([]byte, error) {
	blk, _, err := c.cache.GetOrFill(ctx, key, func(ctx context.Context) ([]byte, error) {
		return c.inner.Get(ctx, key)
	})
	if err != nil {
		return nil, err
	}
	out := make([]byte, blk.Len())
	copy(out, blk.Bytes())
	return out, nil
}

// Put implements Store, invalidating any cached payload for key.
func (c *Cached) Put(ctx context.Context, key string, data []byte) error {
	if err := c.inner.Put(ctx, key, data); err != nil {
		return err
	}
	c.cache.Remove(key)
	return nil
}

// Delete implements Store, invalidating any cached payload for key.
func (c *Cached) Delete(ctx context.Context, key string) error {
	if err := c.inner.Delete(ctx, key); err != nil {
		return err
	}
	c.cache.Remove(key)
	return nil
}

// Stat implements Store; metadata probes pass through uncached.
func (c *Cached) Stat(ctx context.Context, key string) (ObjectInfo, error) {
	return c.inner.Stat(ctx, key)
}

// List implements Store; listings pass through uncached.
func (c *Cached) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	return c.inner.List(ctx, prefix)
}
