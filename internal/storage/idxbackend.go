package storage

import (
	"context"
	"strings"
)

// IDXBackend adapts a Store to the idx.Backend interface, optionally
// rooting the dataset at a key prefix so many datasets can share one
// store (e.g. "datasets/tennessee_30m/"). This is how the conversion and
// dashboard services place IDX data on Seal Storage or Dataverse-backed
// object stores.
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

// Delete implements idx.Deleter, letting idx.Create clear stale blocks
// on store-backed datasets.
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
