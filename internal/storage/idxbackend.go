package storage

import (
	"context"
	"strings"
)

// IDXBackend adapts a Store to the idx.Backend interface, optionally
// rooting the dataset at a key prefix so many datasets can share one
// store (e.g. "datasets/tennessee_30m/"). It is how every IDX dataset
// reaches its objects: in a MemStore (the dashboard's demo dataset,
// the examples, experiments and tests), in a directory, or on the HTTP
// and sharded stores standing in for Seal Storage. A missing object is
// the store's ErrNotExist.
type IDXBackend struct {
	store  Store
	prefix string
}

// NewIDXBackend roots an idx backend at prefix within store. A non-empty
// prefix is normalised to end with "/".
func NewIDXBackend(store Store, prefix string) *IDXBackend {
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	return &IDXBackend{store: store, prefix: prefix}
}

// Get implements idx.Backend: the caller's context reaches the store
// unmodified, so a cancelled dashboard request aborts the wide-area
// fetch instead of letting it run to completion against a hung link.
func (b *IDXBackend) Get(ctx context.Context, name string) ([]byte, error) {
	return b.store.Get(ctx, b.prefix+name)
}

// Put implements idx.Backend.
func (b *IDXBackend) Put(ctx context.Context, name string, data []byte) error {
	return b.store.Put(ctx, b.prefix+name, data)
}

// Delete implements idx.Backend; idx.Create clears stale blocks with it.
func (b *IDXBackend) Delete(ctx context.Context, name string) error {
	return b.store.Delete(ctx, b.prefix+name)
}

// List implements idx.Backend.
func (b *IDXBackend) List(ctx context.Context, prefix string) ([]string, error) {
	infos, err := b.store.List(ctx, b.prefix+prefix)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(infos))
	for _, info := range infos {
		names = append(names, strings.TrimPrefix(info.Key, b.prefix))
	}
	return names, nil
}
