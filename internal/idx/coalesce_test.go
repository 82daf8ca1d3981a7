package idx

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/storage"
)

// perKeyCountingBackend wraps a memory backend and counts Gets per object name.
type perKeyCountingBackend struct {
	*storage.IDXBackend
	mu     sync.Mutex
	counts map[string]int
}

func (p *perKeyCountingBackend) Get(ctx context.Context, name string) ([]byte, error) {
	p.mu.Lock()
	if p.counts == nil {
		p.counts = map[string]int{}
	}
	p.counts[name]++
	p.mu.Unlock()
	// Hold the fetch open long enough for concurrent readers to pile onto
	// the same in-flight key.
	time.Sleep(2 * time.Millisecond)
	return p.IDXBackend.Get(ctx, name)
}

// TestConcurrentReadBoxCoalescesFetches is the end-to-end duplicate-fetch
// regression test: N readers racing over a cold cache must trigger at most
// one backend Get per block key, with the rest coalesced onto the leader's
// flight.
func TestConcurrentReadBoxCoalescesFetches(t *testing.T) {
	meta, err := NewMeta([]int{128, 128}, []Field{{Name: "elevation", Type: Float32}})
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 8 // 64 blocks
	be := &perKeyCountingBackend{IDXBackend: newBackend()}
	ds, err := Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	want := rampGrid(128, 128)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, want); err != nil {
		t.Fatal(err)
	}
	c := cache.NewMemTiered(64 << 20)
	ds.SetCache(c)
	be.mu.Lock()
	be.counts = map[string]int{} // discard writer-side traffic
	be.mu.Unlock()

	const readers = 8
	var wg sync.WaitGroup
	results := make([]*raster.Grid, readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = ds.ReadBox(context.Background(), "elevation", 0,
				Box{X1: 128, Y1: 128}, meta.MaxLevel())
		}(i)
	}
	wg.Wait()
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !raster.Equal(results[i], want) {
			t.Fatalf("reader %d got wrong data", i)
		}
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	for name, n := range be.counts {
		if !strings.HasPrefix(name, "fields/") {
			continue
		}
		if n != 1 {
			t.Errorf("block %s fetched %d times, want 1 (duplicate fetch not coalesced)", name, n)
		}
	}
	s := c.Stats()
	if s.Coalesced == 0 && s.Hits == 0 {
		t.Error("no reader was served from the shared flight or the cache")
	}
}
