package idx

import (
	"context"
	"runtime"
	"testing"

	"nsdfgo/internal/cache"
)

// allocatedBy returns the bytes fn allocates, by the runtime's count.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadWriteAllocationBound pins what the block-first tile plan
// bought: planning a box costs table entries per row and column, not a
// record per sample or per run. A warm-cache full-resolution ReadBox of
// a 1024x1024 float32 field may allocate its output grid plus 64 KiB,
// and a raw-codec WriteGrid onto a MemBackend under three times the raw
// grid (each block is copied once by the codec and once by the backend);
// the materialised run plan this replaced took 9x on its own.
func TestReadWriteAllocationBound(t *testing.T) {
	const side = 1024
	const gridBytes = side * side * 4
	ds, _ := newTestDataset(t, side, side, []Field{{Name: "v", Type: Float32, Codec: "raw"}})
	g := rampGrid(side, side)
	ctx := context.Background()

	write := func() {
		if err := ds.WriteGrid(ctx, "v", 0, g); err != nil {
			t.Fatal(err)
		}
	}
	write() // builds the block-key table
	if got := allocatedBy(write); got >= 3*gridBytes {
		t.Errorf("WriteGrid allocated %d bytes, want under 3x the %d-byte grid", got, gridBytes)
	}

	ds.SetCache(cache.NewMemTiered(2 * gridBytes))
	read := func() {
		if _, _, err := ds.ReadFull(ctx, "v", 0); err != nil {
			t.Fatal(err)
		}
	}
	read() // fills the cache
	const reads = 20
	got := allocatedBy(func() {
		for i := 0; i < reads; i++ {
			read()
		}
	})
	if perRead := got / reads; perRead > gridBytes+64<<10 {
		t.Errorf("warm ReadBox allocated %d bytes per read, want at most the %d-byte grid plus 64 KiB", perRead, gridBytes)
	}
}
