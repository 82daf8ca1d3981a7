package idx

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nsdfgo/internal/raster"
	"nsdfgo/internal/storage"
)

// slowCountingBackend wraps a memory backend and tracks the peak number of
// concurrent Get calls.
type slowCountingBackend struct {
	*storage.IDXBackend
	mu      sync.Mutex
	current int
	peak    int
}

func (s *slowCountingBackend) Get(ctx context.Context, name string) ([]byte, error) {
	s.mu.Lock()
	s.current++
	if s.current > s.peak {
		s.peak = s.current
	}
	s.mu.Unlock()
	// Simulate remote latency so concurrent fetches actually overlap even
	// on a single-core test machine.
	time.Sleep(2 * time.Millisecond)
	defer func() {
		s.mu.Lock()
		s.current--
		s.mu.Unlock()
	}()
	return s.IDXBackend.Get(ctx, name)
}

func (s *slowCountingBackend) Peak() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

func newParallelDataset(t *testing.T) (*Dataset, *slowCountingBackend, *raster.Grid) {
	t.Helper()
	meta, err := NewMeta([]int{128, 128}, []Field{{Name: "elevation", Type: Float32}})
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 8 // 64 blocks: plenty of fetch parallelism available
	be := &slowCountingBackend{IDXBackend: newBackend()}
	ds, err := Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	g := rampGrid(128, 128)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		t.Fatal(err)
	}
	return ds, be, g
}

func TestParallelFetchMatchesSerial(t *testing.T) {
	ds, _, g := newParallelDataset(t)
	serial, _, err := ds.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	ds.SetFetchParallelism(8)
	parallel, stats, err := ds.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(serial, parallel) {
		t.Error("parallel fetch produced different data")
	}
	if !raster.Equal(g, parallel) {
		t.Error("parallel fetch diverged from source grid")
	}
	if stats.BlocksRead == 0 {
		t.Error("no blocks read")
	}
}

func TestParallelFetchActuallyConcurrent(t *testing.T) {
	ds, be, _ := newParallelDataset(t)
	ds.SetFetchParallelism(8)
	if _, _, err := ds.ReadFull(context.Background(), "elevation", 0); err != nil {
		t.Fatal(err)
	}
	// With 8 workers over 64+ blocks, at least 2 Gets must have
	// overlapped (scheduling can rarely serialise more, but not all).
	if be.Peak() < 2 {
		t.Errorf("peak concurrent Gets = %d; fetch did not parallelise", be.Peak())
	}
}

func TestParallelismClampedAndIdempotent(t *testing.T) {
	ds, _, g := newParallelDataset(t)
	ds.SetFetchParallelism(-3) // clamps to 1
	out, _, err := ds.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, out) {
		t.Error("clamped parallelism broke reads")
	}
	ds.SetFetchParallelism(1000) // more workers than blocks
	out, _, err = ds.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, out) {
		t.Error("oversubscribed parallelism broke reads")
	}
}

// TestFetchPressureShrinksParallelism pins the backpressure contract:
// fetchParallelism scales linearly from the configured worker count at
// pressure 0 down to exactly 1 at pressure >= 1, and a read under full
// pressure really does fetch serially.
func TestFetchPressureShrinksParallelism(t *testing.T) {
	ds, be, g := newParallelDataset(t)
	ds.SetFetchParallelism(8)

	pressure := 0.0
	ds.SetFetchPressure(func() float64 { return pressure })
	for _, tc := range []struct {
		pressure float64
		want     int
	}{
		{0, 8}, {0.5, 4} /* 8 - round(0.5*7) = 4 */, {1, 1}, {2.5, 1}, {-1, 8},
	} {
		pressure = tc.pressure
		if got := ds.fetchParallelism(); got != tc.want {
			t.Errorf("pressure %.2f: workers = %d, want %d", tc.pressure, got, tc.want)
		}
	}

	// Under full pressure the read must not overlap backend Gets.
	pressure = 1
	out, _, err := ds.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, out) {
		t.Error("pressured read produced different data")
	}
	if be.Peak() != 1 {
		t.Errorf("peak concurrent Gets = %d under full pressure, want 1", be.Peak())
	}

	// Dropping the hook restores the configured parallelism.
	ds.SetFetchPressure(nil)
	if got := ds.fetchParallelism(); got != 8 {
		t.Errorf("workers after clearing pressure = %d, want 8", got)
	}
}

// failingBackend fails Gets of one block key and counts the Gets that
// reach it.
type failingBackend struct {
	Backend
	failKey string
	gets    atomic.Int64
}

func (f *failingBackend) Get(ctx context.Context, name string) ([]byte, error) {
	f.gets.Add(1)
	if name == f.failKey {
		return nil, fmt.Errorf("injected backend failure for %s", name)
	}
	return f.Backend.Get(ctx, name)
}

// TestParallelFetchSurfacesErrors: a failed block is the read's error,
// and once it fails the pool hands out no further misses. Only the
// fetches already in flight finish, because one of them may be the
// cache fill other readers wait on.
func TestParallelFetchSurfacesErrors(t *testing.T) {
	ds, slow, _ := newParallelDataset(t) // 64 blocks, each Get 2 ms
	fail := &failingBackend{Backend: slow, failKey: ds.BlockKey("elevation", 0, 0)}
	ds2 := &Dataset{Meta: ds.Meta, be: fail}
	const workers = 4
	ds2.SetFetchParallelism(workers)
	_, _, err := ds2.ReadFull(context.Background(), "elevation", 0)
	if err == nil || !strings.Contains(err.Error(), fail.failKey) {
		t.Fatalf("read err = %v, want block 0's failure", err)
	}
	if further := fail.gets.Load() - 1; further > 2*workers {
		t.Errorf("%d further Gets reached the backend after block 0 failed, want at most %d", further, 2*workers)
	}
}

func TestSerialFetchSurfacesErrors(t *testing.T) {
	meta, _ := NewMeta([]int{64, 64}, []Field{{Name: "elevation", Type: Float32}})
	meta.BitsPerBlock = 8
	inner := newBackend()
	ds, err := Create(context.Background(), inner, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(64, 64)); err != nil {
		t.Fatal(err)
	}
	fail := &failingBackend{Backend: inner, failKey: ds.BlockKey("elevation", 0, 0)}
	ds2 := &Dataset{Meta: ds.Meta, be: fail}
	if _, _, err := ds2.ReadFull(context.Background(), "elevation", 0); err == nil {
		t.Error("injected failure not surfaced by serial fetch")
	}
}
