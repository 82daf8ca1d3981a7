package idx

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"nsdfgo/internal/raster"
)

// noDeleteBackend hides MemBackend's Delete so the wrapped value
// satisfies Backend but not Deleter.
type noDeleteBackend struct {
	m *MemBackend
}

func (b *noDeleteBackend) Get(ctx context.Context, name string) ([]byte, error) {
	return b.m.Get(ctx, name)
}

func (b *noDeleteBackend) Put(ctx context.Context, name string, data []byte) error {
	return b.m.Put(ctx, name, data)
}

func (b *noDeleteBackend) List(ctx context.Context, prefix string) ([]string, error) {
	return b.m.List(ctx, prefix)
}

// TestCreateRemovesStaleBlocks is the regression test for re-creating a
// dataset over a backend that still holds the previous dataset's blocks:
// before the fix, Create only rewrote the descriptor, so a re-created
// (smaller or sparser) dataset could silently serve the old samples.
func TestCreateRemovesStaleBlocks(t *testing.T) {
	meta, err := NewMeta([]int{32, 32}, float32Fields())
	if err != nil {
		t.Fatal(err)
	}
	be := NewMemBackend()
	ds, err := Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(32, 32)); err != nil {
		t.Fatal(err)
	}
	blocks, err := be.List(context.Background(), BlockPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) == 0 {
		t.Fatal("write left no blocks; test setup broken")
	}

	ds2, err := Create(context.Background(), be, meta)
	if err != nil {
		t.Fatalf("re-Create over existing blocks: %v", err)
	}
	left, err := be.List(context.Background(), BlockPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d stale blocks survived re-Create: %v", len(left), left)
	}
	// The re-created dataset is empty: a read must fail rather than
	// return the previous dataset's samples.
	if _, _, err := ds2.ReadFull(context.Background(), "elevation", 0); err == nil {
		t.Error("ReadFull on freshly re-created dataset succeeded — served stale blocks")
	}
}

// TestCreateRefusesStaleBlocksWithoutDeleter checks the fallback for
// backends that cannot delete: refusing is safer than serving stale data.
func TestCreateRefusesStaleBlocksWithoutDeleter(t *testing.T) {
	meta, err := NewMeta([]int{32, 32}, float32Fields())
	if err != nil {
		t.Fatal(err)
	}
	inner := NewMemBackend()
	be := &noDeleteBackend{m: inner}
	ds, err := Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(32, 32)); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(context.Background(), be, meta); err == nil {
		t.Fatal("Create over stale blocks succeeded on a backend without Delete")
	} else if !strings.Contains(err.Error(), "stale blocks") {
		t.Errorf("error %q does not mention stale blocks", err)
	}
	// A clean backend still works.
	if _, err := Create(context.Background(), &noDeleteBackend{m: NewMemBackend()}, meta); err != nil {
		t.Errorf("Create on clean non-deleting backend: %v", err)
	}
}

// TestDeleteMissingObjectIsNoError pins the Deleter contract (the
// directory-backed half is storage's TestFileStoreIDXBackend).
func TestDeleteMissingObjectIsNoError(t *testing.T) {
	if err := NewMemBackend().Delete(context.Background(), "absent"); err != nil {
		t.Errorf("MemBackend.Delete(context.Background(), absent) = %v", err)
	}
}

// putCountingBackend tracks the peak number of concurrent Put calls.
type putCountingBackend struct {
	*MemBackend
	mu      sync.Mutex
	current int
	peak    int
}

func (b *putCountingBackend) Put(ctx context.Context, name string, data []byte) error {
	b.mu.Lock()
	b.current++
	if b.current > b.peak {
		b.peak = b.current
	}
	b.mu.Unlock()
	// Hold the slot briefly so concurrent writers actually overlap.
	time.Sleep(2 * time.Millisecond)
	defer func() {
		b.mu.Lock()
		b.current--
		b.mu.Unlock()
	}()
	return b.MemBackend.Put(ctx, name, data)
}

func (b *putCountingBackend) Peak() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// TestWriteParallelismHonored is the regression test for the hardcoded
// 4-worker write pool: SetWriteParallelism must actually bound the
// number of concurrent block Puts, and the stored objects must be
// byte-identical regardless of worker count.
func TestWriteParallelismHonored(t *testing.T) {
	meta, err := NewMeta([]int{64, 64}, float32Fields())
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 8 // 16 blocks: room for parallelism
	g := rampGrid(64, 64)

	write := func(workers int) (*putCountingBackend, *Dataset) {
		t.Helper()
		be := &putCountingBackend{MemBackend: NewMemBackend()}
		ds, err := Create(context.Background(), be, meta)
		if err != nil {
			t.Fatal(err)
		}
		ds.SetWriteParallelism(workers)
		if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
			t.Fatal(err)
		}
		return be, ds
	}

	serialBE, serialDS := write(1)
	if got := serialBE.Peak(); got != 1 {
		t.Errorf("SetWriteParallelism(1): peak concurrent Puts = %d, want 1", got)
	}
	parallelBE, parallelDS := write(8)
	if got := parallelBE.Peak(); got < 2 {
		t.Errorf("SetWriteParallelism(8): peak concurrent Puts = %d, want >= 2", got)
	}

	// Same bytes in every object either way.
	names, err := serialBE.List(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		a, err := serialBE.Get(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallelBE.Get(context.Background(), name)
		if err != nil {
			t.Fatalf("object %q missing from parallel write: %v", name, err)
		}
		if string(a) != string(b) {
			t.Errorf("object %q differs between serial and parallel writes", name)
		}
	}

	// And the data round-trips identically.
	for _, ds := range []*Dataset{serialDS, parallelDS} {
		out, _, err := ds.ReadFull(context.Background(), "elevation", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !raster.Equal(g, out) {
			t.Error("round trip mismatch after parallel write")
		}
	}

	// Values below 1 restore the GOMAXPROCS default rather than sticking.
	ds := serialDS
	ds.SetWriteParallelism(-3)
	if got := ds.writeWorkers(1); got != 1 {
		t.Errorf("writeWorkers(1) = %d, want clamp to job size 1", got)
	}
}
