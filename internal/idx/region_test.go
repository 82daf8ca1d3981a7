package idx

import (
	"context"
	"math"
	"testing"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/raster"
)

func TestWriteRegionTilesEqualWholeGrid(t *testing.T) {
	// Streaming a grid tile-by-tile must produce the same dataset as one
	// WriteGrid call (the key out-of-core property).
	const w, h = 96, 64
	g := rampGrid(w, h)

	whole, _ := newTestDataset(t, w, h, float32Fields())
	if err := whole.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		t.Fatal(err)
	}
	tiled, _ := newTestDataset(t, w, h, float32Fields())
	const tile = 24
	for y0 := 0; y0 < h; y0 += tile {
		for x0 := 0; x0 < w; x0 += tile {
			tw, th := tile, tile
			if x0+tw > w {
				tw = w - x0
			}
			if y0+th > h {
				th = h - y0
			}
			sub, err := g.Crop(x0, y0, tw, th)
			if err != nil {
				t.Fatal(err)
			}
			if err := tiled.WriteRegion(context.Background(), "elevation", 0, x0, y0, sub); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, _, err := whole.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := tiled.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(a, b) {
		t.Fatal("tile-streamed dataset differs from whole-grid dataset")
	}
}

func TestWriteRegionPartialUpdate(t *testing.T) {
	ds, _ := newTestDataset(t, 32, 32, float32Fields())
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(32, 32)); err != nil {
		t.Fatal(err)
	}
	patch := raster.New(8, 4)
	for i := range patch.Data {
		patch.Data[i] = -999
	}
	if err := ds.WriteRegion(context.Background(), "elevation", 0, 10, 20, patch); err != nil {
		t.Fatal(err)
	}
	out, _, err := ds.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			inside := x >= 10 && x < 18 && y >= 20 && y < 24
			want := float32(y*32 + x)
			if inside {
				want = -999
			}
			if got := out.At(x, y); got != want {
				t.Fatalf("(%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
}

func TestWriteRegionIntoEmptyDatasetUsesFill(t *testing.T) {
	meta, err := NewMeta([]int{16, 16}, []Field{{Name: "f", Type: Float32, Fill: float32(math.Inf(-1))}})
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 4
	ds, err := Create(context.Background(), NewMemBackend(), meta)
	if err != nil {
		t.Fatal(err)
	}
	patch := raster.New(4, 4)
	for i := range patch.Data {
		patch.Data[i] = 7
	}
	if err := ds.WriteRegion(context.Background(), "f", 0, 0, 0, patch); err != nil {
		t.Fatal(err)
	}
	// Reading the written corner works; untouched blocks are absent, so a
	// full read fails cleanly (sparse dataset).
	got, _, err := ds.ReadBox(context.Background(), "f", 0, Box{X1: 4, Y1: 4}, meta.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if got.At(2, 2) != 7 {
		t.Errorf("written sample %v", got.At(2, 2))
	}
	// Samples inside written blocks but outside the patch carry the fill.
	wider, _, err := ds.ReadBox(context.Background(), "f", 0, Box{X1: 8, Y1: 2}, meta.MaxLevel())
	if err == nil {
		// Depending on block geometry this read may touch only written
		// blocks; then fill must appear outside the patch.
		found := false
		for _, v := range wider.Data {
			if math.IsInf(float64(v), -1) {
				found = true
			}
		}
		if !found && wider.W > 4 {
			t.Error("no fill value visible outside the written patch")
		}
	}
}

func TestWriteRegionValidation(t *testing.T) {
	ds, _ := newTestDataset(t, 16, 16, float32Fields())
	patch := raster.New(4, 4)
	if err := ds.WriteRegion(context.Background(), "nope", 0, 0, 0, patch); err == nil {
		t.Error("unknown field accepted")
	}
	if err := ds.WriteRegion(context.Background(), "elevation", 0, 14, 0, patch); err == nil {
		t.Error("overflow region accepted")
	}
	if err := ds.WriteRegion(context.Background(), "elevation", 0, -1, 0, patch); err == nil {
		t.Error("negative anchor accepted")
	}
	if err := ds.WriteRegion(context.Background(), "elevation", 0, 0, 0, raster.New(0, 0)); err == nil {
		t.Error("empty region accepted")
	}
}

func TestWriteRegionRefreshesCache(t *testing.T) {
	ds, _ := newTestDataset(t, 32, 32, float32Fields())
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(32, 32)); err != nil {
		t.Fatal(err)
	}
	c := cache.NewMemTiered(1 << 20)
	ds.SetCache(c)
	if _, _, err := ds.ReadFull(context.Background(), "elevation", 0); err != nil { // warm
		t.Fatal(err)
	}
	patch := raster.New(2, 2)
	patch.Data = []float32{1, 2, 3, 4}
	if err := ds.WriteRegion(context.Background(), "elevation", 0, 0, 0, patch); err != nil {
		t.Fatal(err)
	}
	warm := c.Stats()
	out, stats, err := ds.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0) != 1 || out.At(1, 1) != 4 {
		t.Error("stale cache served after WriteRegion")
	}
	// Refreshed, not just purged: the rewritten blocks are hits too.
	if s := c.Stats(); stats.BlocksRead != 0 || s.Misses != warm.Misses {
		t.Errorf("read after WriteRegion fetched %d blocks (%d new misses), want the refreshed entries served",
			stats.BlocksRead, s.Misses-warm.Misses)
	}
}

// TestFullWriteInvalidatesCache is the full-rewrite counterpart, one row
// per writer: after a second WriteGrid or WriteVolume through a dataset
// with an attached cache, no read may be served the first write's
// samples. Full writes purge and do not refresh, so the read after one
// goes to the backend.
func TestFullWriteInvalidatesCache(t *testing.T) {
	ctx := context.Background()
	rows := []struct {
		dims  []int
		write func(ds *Dataset, data []float32) error
		read  func(ds *Dataset) ([]float32, *ReadStats, error)
	}{
		{[]int{32, 32},
			func(ds *Dataset, data []float32) error {
				return ds.WriteGrid(ctx, "elevation", 0, &raster.Grid{W: 32, H: 32, Data: data})
			},
			func(ds *Dataset) ([]float32, *ReadStats, error) {
				g, stats, err := ds.ReadFull(ctx, "elevation", 0)
				if err != nil {
					return nil, nil, err
				}
				return g.Data, stats, nil
			}},
		{[]int{16, 8, 4},
			func(ds *Dataset, data []float32) error { return ds.WriteVolume(ctx, "elevation", 0, data) },
			func(ds *Dataset) ([]float32, *ReadStats, error) {
				vol, stats, err := ds.ReadBox3D(ctx, "elevation", 0, ds.FullBox3(), ds.Meta.MaxLevel())
				if err != nil {
					return nil, nil, err
				}
				return vol.Data, stats, nil
			}},
	}
	for _, row := range rows {
		meta, err := NewMeta(row.dims, float32Fields())
		if err != nil {
			t.Fatal(err)
		}
		meta.BitsPerBlock = 6
		ds, err := Create(ctx, NewMemBackend(), meta)
		if err != nil {
			t.Fatal(err)
		}
		ds.SetCache(cache.NewMemTiered(1 << 20))
		n := 1
		for _, d := range row.dims {
			n *= d
		}
		data := make([]float32, n)
		for _, v := range []float32{1, 2} {
			for i := range data {
				data[i] = v
			}
			if err := row.write(ds, data); err != nil {
				t.Fatal(err)
			}
			got, stats, err := row.read(ds)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range got {
				if s != v {
					t.Fatalf("dims %v: sample %d reads %v after writing %vs: stale cache served", row.dims, i, s, v)
				}
			}
			if stats.BlocksCached != 0 {
				t.Errorf("dims %v: %d blocks served from the cache right after a full write", row.dims, stats.BlocksCached)
			}
		}
	}
}

func BenchmarkWriteRegionTile(b *testing.B) {
	meta, _ := NewMeta([]int{512, 512}, []Field{{Name: "f", Type: Float32}})
	meta.BitsPerBlock = 12
	ds, _ := Create(context.Background(), NewMemBackend(), meta)
	if err := ds.WriteGrid(context.Background(), "f", 0, rampGrid(512, 512)); err != nil {
		b.Fatal(err)
	}
	patch := rampGrid(64, 64)
	b.SetBytes(int64(4 * len(patch.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.WriteRegion(context.Background(), "f", 0, (i%7)*64, (i%7)*64, patch); err != nil {
			b.Fatal(err)
		}
	}
}
