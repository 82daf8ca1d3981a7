package idx

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Backend is the object-store abstraction an IDX dataset persists to.
// storage.NewIDXBackend adapts every storage.Store (a directory, the
// HTTP object store, the sharded tier) to it; this package ships only a
// memory backend, so the engine and its tests work standalone.
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
	// List returns all object names with the given prefix, sorted.
	List(ctx context.Context, prefix string) ([]string, error)
}

// Deleter is the optional backend capability Create uses to clear stale
// blocks when re-creating a dataset in place. All of this repository's
// backends implement it; a backend that does not makes Create refuse to
// overwrite an existing dataset's blocks.
type Deleter interface {
	// Delete removes the object stored under name; deleting a missing
	// object is not an error.
	Delete(ctx context.Context, name string) error
}

// MemBackend is an in-memory Backend, useful for tests and for measuring
// stored dataset sizes.
type MemBackend struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{objects: make(map[string][]byte)}
}

// Get implements Backend.
func (m *MemBackend) Get(ctx context.Context, name string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.objects[name]
	if !ok {
		return nil, fmt.Errorf("idx: object %q does not exist", name)
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Put implements Backend.
func (m *MemBackend) Put(ctx context.Context, name string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.objects[name] = cp
	return nil
}

// Delete implements Deleter.
func (m *MemBackend) Delete(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.objects, name)
	return nil
}

// List implements Backend.
func (m *MemBackend) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.objects))
	for name := range m.objects {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// TotalBytes returns the sum of stored object sizes; the experiment
// harness uses it to measure dataset footprints (the ~20 % claim).
func (m *MemBackend) TotalBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var total int64
	for _, data := range m.objects {
		total += int64(len(data))
	}
	return total
}

// NumObjects returns the number of stored objects.
func (m *MemBackend) NumObjects() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.objects)
}
