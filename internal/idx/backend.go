package idx

import "context"

// Backend is the object store an IDX dataset persists to: its
// descriptor under MetaObjectName and its blocks under BlockPrefix.
// storage.NewIDXBackend adapts every storage.Store to it (memory, a
// directory, the HTTP object store, the sharded tier), so a missing
// object is storage.ErrNotExist whichever store holds the dataset.
//
// Every method takes the caller's context: a dataset served over a
// wide-area object store must abort promptly when the request that
// triggered the I/O is cancelled or deadline-bounded. Implementations
// must honour ctx cancellation (at minimum by checking ctx.Err() before
// doing work) and must be safe for concurrent use.
type Backend interface {
	// Get returns the object stored under name, or an error when it is
	// absent.
	Get(ctx context.Context, name string) ([]byte, error)
	// Put stores data under name, replacing any previous object.
	Put(ctx context.Context, name string, data []byte) error
	// Delete removes the object stored under name; deleting a missing
	// object is not an error. Create clears stale blocks with it.
	Delete(ctx context.Context, name string) error
	// List returns all object names with the given prefix, sorted.
	List(ctx context.Context, prefix string) ([]string, error)
}
