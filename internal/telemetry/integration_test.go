package telemetry_test

import (
	"context"
	"testing"

	"nsdfgo/internal/dem"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
)

// TestCacheCountersMatchReadStats reads a region cold, then re-reads it
// warm, and checks that the per-call ReadStats the dataset reports agree
// with the series that own each fact: blocks and bytes fetched with the
// instrumented store under the dataset, cache-served blocks with the
// cache. The cold read is all backend fetches, the warm re-read is all
// cache hits.
func TestCacheCountersMatchReadStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	meta, err := idx.NewMeta([]int{64, 64}, []idx.Field{{Name: "elevation", Type: idx.Float32, Codec: "zlib"}})
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 8
	be := storage.NewIDXBackend(storage.NewInstrumented(storage.NewMemStore(), reg, "mem"), "")
	ds, err := idx.Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteGrid(context.Background(), "elevation", 0, dem.Scale(dem.FBM(64, 64, 3, dem.DefaultFBM()), 0, 2000)); err != nil {
		t.Fatal(err)
	}

	eng := query.New(ds, 1<<20)
	eng.Instrument(reg, "test")

	gets := reg.Counter("nsdf_storage_ops_total", "backend", "mem", "op", "get")
	bytesDown := reg.Counter("nsdf_storage_bytes_total", "backend", "mem", "direction", "down")
	gets0, bytes0 := gets.Value(), bytesDown.Value()

	level := ds.Meta.MaxLevel()
	_, cold, err := ds.ReadBox(context.Background(), "elevation", 0, ds.FullBox(), level)
	if err != nil {
		t.Fatal(err)
	}
	if cold.BlocksRead == 0 {
		t.Fatal("cold read fetched no blocks; test needs a multi-block dataset")
	}
	if cold.BlocksCached != 0 {
		t.Fatalf("cold read had %d cache hits, want 0", cold.BlocksCached)
	}
	if got := gets.Value() - gets0; got != int64(cold.BlocksRead) {
		t.Errorf("after cold read: store gets = %d, ReadStats.BlocksRead = %d", got, cold.BlocksRead)
	}
	if got := bytesDown.Value() - bytes0; got != cold.BytesRead {
		t.Errorf("after cold read: store bytes down = %d, ReadStats.BytesRead = %d", got, cold.BytesRead)
	}

	_, warm, err := ds.ReadBox(context.Background(), "elevation", 0, ds.FullBox(), level)
	if err != nil {
		t.Fatal(err)
	}
	if warm.BlocksRead != 0 {
		t.Errorf("warm re-read fetched %d blocks from the backend, want 0", warm.BlocksRead)
	}
	if warm.BlocksCached != cold.BlocksRead {
		t.Errorf("warm re-read served %d blocks from cache, want %d", warm.BlocksCached, cold.BlocksRead)
	}
	if got := gets.Value() - gets0; got != int64(cold.BlocksRead) {
		t.Errorf("after warm read: store gets = %d, want unchanged %d", got, cold.BlocksRead)
	}

	// The cache's own fn-backed series: one miss per cold-read block, one
	// hit per warm-read block.
	hits := reg.SumFamily("nsdf_cache_hits_total")
	misses := reg.SumFamily("nsdf_cache_misses_total")
	if int64(misses) != int64(cold.BlocksRead) {
		t.Errorf("cache misses = %.0f, want %d", misses, cold.BlocksRead)
	}
	if int64(hits) != int64(warm.BlocksCached) {
		t.Errorf("cache hits = %.0f, ReadStats.BlocksCached = %d", hits, warm.BlocksCached)
	}

	// Latency histogram saw both reads.
	if snap := reg.Histogram("nsdf_idx_read_seconds", "dataset", "test").Snapshot(); snap.Count != 2 {
		t.Errorf("read latency observations = %d, want 2", snap.Count)
	}
}
