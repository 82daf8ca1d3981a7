package idx

import (
	"context"
	"runtime"
	"testing"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/telemetry/trace"
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
// float32 field may allocate its output plus a per-row slack, and a
// raw-codec full write onto a MemBackend under three times the raw
// samples (each block is copied once by the codec and once by the
// backend); the materialised run plan this replaced took 9x on its own,
// the per-sample 3D reader an address per sample. A read under its own
// root span, as every served request is, may allocate a fixed slack
// more than the untraced read: it records one span per stage (idx.read,
// plan, decode, assemble), not one per block or per run.
func TestReadWriteAllocationBound(t *testing.T) {
	const rawBytes, traceSlack = 4 << 20, 8 << 10
	ctx := context.Background()
	writeGrid := func(ds *Dataset, data []float32) error {
		return ds.WriteGrid(ctx, "v", 0, &raster.Grid{W: 1024, H: 1024, Data: data})
	}
	readFull := func(ctx context.Context, ds *Dataset) error { _, _, err := ds.ReadFull(ctx, "v", 0); return err }
	rows := []struct {
		dims         []int
		bitsPerBlock int // 0 keeps NewMeta's default
		readSlack    uint64
		write        func(ds *Dataset, data []float32) error
		read         func(ctx context.Context, ds *Dataset) error
	}{
		{[]int{1024, 1024}, 0, 64 << 10, writeGrid, readFull},
		// 1024 blocks: about 300 B of spans and tiles per block, and a
		// block key formatted per read would add ~55 KiB more.
		{[]int{1024, 1024}, 10, 320 << 10, writeGrid, readFull},
		{[]int{128, 128, 64}, 0, 64 << 10,
			func(ds *Dataset, data []float32) error { return ds.WriteVolume(ctx, "v", 0, data) },
			func(ctx context.Context, ds *Dataset) error {
				_, _, err := ds.ReadBox3D(ctx, "v", 0, ds.FullBox3(), ds.Meta.MaxLevel())
				return err
			}},
	}
	for _, row := range rows {
		meta, err := NewMeta(row.dims, []Field{{Name: "v", Type: Float32, Codec: "raw"}})
		if err != nil {
			t.Fatal(err)
		}
		if row.bitsPerBlock != 0 {
			meta.BitsPerBlock = row.bitsPerBlock
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
			t.Errorf("dims %v, %d blocks: full write allocated %d bytes, want under 3x the %d raw bytes", row.dims, meta.NumBlocks(), got, rawBytes)
		}

		ds.SetCache(cache.NewMemTiered(2 * rawBytes))
		read := func() {
			if err := row.read(ctx, ds); err != nil {
				t.Fatal(err)
			}
		}
		col := trace.NewCollector(4)
		tracedRead := func() {
			root := col.StartTrace("", "read")
			if err := row.read(trace.NewContext(ctx, root), ds); err != nil {
				t.Fatal(err)
			}
			root.End()
		}
		read() // fills the cache
		tracedRead()
		const reads = 20
		perRead := func(fn func()) uint64 {
			return allocatedBy(func() {
				for i := 0; i < reads; i++ {
					fn()
				}
			}) / reads
		}
		untraced := perRead(read)
		if untraced > rawBytes+row.readSlack {
			t.Errorf("dims %v, %d blocks: warm read allocated %d bytes per read, want at most the %d-byte output plus %d KiB",
				row.dims, meta.NumBlocks(), untraced, rawBytes, row.readSlack>>10)
		}
		if traced := perRead(tracedRead); traced > untraced+traceSlack {
			t.Errorf("dims %v, %d blocks: traced warm read allocated %d bytes per read, want at most the untraced %d plus %d KiB",
				row.dims, meta.NumBlocks(), traced, untraced, traceSlack>>10)
		}
	}
}
