package idx

import (
	"context"
	"runtime"
	"testing"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/raster"
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
// bought, in two dimensions and in three: planning a box costs table
// entries per row, column and plane, not a record per sample, per run or
// per block key. A warm-cache full-resolution read of a 2^20-sample
// float32 field may allocate its output plus 64 KiB, and a raw-codec
// full write onto a MemBackend under three times the raw samples (each
// block is copied once by the codec and once by the backend); the
// materialised run plan this replaced took 9x on its own, the
// per-sample 3D reader an address per sample.
func TestReadWriteAllocationBound(t *testing.T) {
	const rawBytes = 4 << 20
	ctx := context.Background()
	rows := []struct {
		dims  []int
		write func(ds *Dataset, data []float32) error
		read  func(ds *Dataset) error
	}{
		{[]int{1024, 1024},
			func(ds *Dataset, data []float32) error {
				return ds.WriteGrid(ctx, "v", 0, &raster.Grid{W: 1024, H: 1024, Data: data})
			},
			func(ds *Dataset) error { _, _, err := ds.ReadFull(ctx, "v", 0); return err }},
		{[]int{128, 128, 64},
			func(ds *Dataset, data []float32) error { return ds.WriteVolume(ctx, "v", 0, data) },
			func(ds *Dataset) error {
				_, _, err := ds.ReadBox3D(ctx, "v", 0, ds.FullBox3(), ds.Meta.MaxLevel())
				return err
			}},
	}
	for _, row := range rows {
		meta, err := NewMeta(row.dims, []Field{{Name: "v", Type: Float32, Codec: "raw"}})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := Create(ctx, NewMemBackend(), meta)
		if err != nil {
			t.Fatal(err)
		}
		data := rampGrid(rawBytes/4, 1).Data

		write := func() {
			if err := row.write(ds, data); err != nil {
				t.Fatal(err)
			}
		}
		write() // builds the block-key table
		if got := allocatedBy(write); got >= 3*rawBytes {
			t.Errorf("dims %v: full write allocated %d bytes, want under 3x the %d raw bytes", row.dims, got, rawBytes)
		}

		ds.SetCache(cache.NewMemTiered(2 * rawBytes))
		read := func() {
			if err := row.read(ds); err != nil {
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
		if perRead := got / reads; perRead > rawBytes+64<<10 {
			t.Errorf("dims %v: warm read allocated %d bytes per read, want at most the %d-byte output plus 64 KiB", row.dims, perRead, rawBytes)
		}
	}
}
