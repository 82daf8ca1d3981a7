package query

import (
	"context"
	"errors"
	"math"
	"testing"

	"nsdfgo/internal/dem"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/storage"
)

func newEngine(t *testing.T, w, h int, bitsPerBlock int) (*Engine, *raster.Grid) {
	t.Helper()
	meta, err := idx.NewMeta([]int{w, h}, []idx.Field{{Name: "elevation", Type: idx.Float32, Codec: "zlib"}})
	if err != nil {
		t.Fatal(err)
	}
	if bitsPerBlock > 0 {
		meta.BitsPerBlock = bitsPerBlock
	}
	ds, err := idx.Create(context.Background(), storage.NewIDXBackend(storage.NewMemStore(), ""), meta)
	if err != nil {
		t.Fatal(err)
	}
	g := dem.Scale(dem.FBM(w, h, 3, dem.DefaultFBM()), 0, 2000)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		t.Fatal(err)
	}
	return New(ds, 1<<20), g
}

func TestReadFullResolution(t *testing.T) {
	e, g := newEngine(t, 64, 64, 10)
	res, err := e.Read(context.Background(), Request{Field: "elevation", Level: LevelFull})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, res.Grid) {
		t.Error("full read mismatch")
	}
	if res.Level != e.Dataset().Meta.MaxLevel() {
		t.Errorf("level = %d", res.Level)
	}
	if res.TransferBytes != int64(64*64*4) {
		t.Errorf("TransferBytes = %d", res.TransferBytes)
	}
}

func TestReadDefaultsToFullBox(t *testing.T) {
	e, _ := newEngine(t, 32, 32, 8)
	res, err := e.Read(context.Background(), Request{Field: "elevation", Level: LevelFull})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grid.W != 32 || res.Grid.H != 32 {
		t.Errorf("dims %dx%d", res.Grid.W, res.Grid.H)
	}
}

func TestMaxSamplesResolvesLevel(t *testing.T) {
	e, _ := newEngine(t, 256, 256, 12)
	res, err := e.Read(context.Background(), Request{Field: "elevation", Level: LevelAuto, MaxSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Samples > 1000 {
		t.Errorf("delivered %d samples, budget 1000", res.Stats.Samples)
	}
	// The next finer level must exceed the budget.
	if res.Level < e.Dataset().Meta.MaxLevel() {
		next := SamplesAtLevel(e.Dataset(), e.Dataset().FullBox(), res.Level+1)
		if next <= 1000 {
			t.Errorf("level %d chosen but level %d has only %d samples", res.Level, res.Level+1, next)
		}
	}
}

func TestMaxSamplesUnboundedMeansFull(t *testing.T) {
	e, _ := newEngine(t, 64, 64, 8)
	res, err := e.Read(context.Background(), Request{Field: "elevation", Level: LevelAuto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != e.Dataset().Meta.MaxLevel() {
		t.Errorf("unbounded auto level = %d", res.Level)
	}
}

func TestRequestValidation(t *testing.T) {
	e, _ := newEngine(t, 32, 32, 8)
	if _, err := e.Read(context.Background(), Request{Field: "elevation", Level: 99}); err == nil {
		t.Error("excessive level accepted")
	}
	if _, err := e.Read(context.Background(), Request{Field: "elevation", Level: LevelFull, PrecisionBits: 40}); err == nil {
		t.Error("precision 40 accepted")
	}
	if _, err := e.Read(context.Background(), Request{Field: "elevation", Level: LevelFull, Box: idx.Box{X0: 50, Y0: 50, X1: 60, Y1: 60}}); err == nil {
		t.Error("out-of-range box accepted")
	}
	if _, err := e.Read(context.Background(), Request{Field: "nope", Level: LevelFull}); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestPrecisionReducesTransferAndAccuracy(t *testing.T) {
	e, g := newEngine(t, 64, 64, 10)
	full, err := e.Read(context.Background(), Request{Field: "elevation", Level: LevelFull})
	if err != nil {
		t.Fatal(err)
	}
	low, err := e.Read(context.Background(), Request{Field: "elevation", Level: LevelFull, PrecisionBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if low.TransferBytes*4 != full.TransferBytes {
		t.Errorf("8-bit transfer %d vs 32-bit %d", low.TransferBytes, full.TransferBytes)
	}
	// Quantized values stay within relative tolerance 2^-8.
	var maxRel float64
	for i := range g.Data {
		ref := float64(g.Data[i])
		got := float64(low.Grid.Data[i])
		if ref == 0 {
			continue
		}
		rel := math.Abs(got-ref) / math.Max(math.Abs(ref), 1e-9)
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel == 0 {
		t.Error("8-bit precision changed nothing")
	}
	if maxRel > 1.0/128 {
		t.Errorf("relative error %v too large for 8 significant bits", maxRel)
	}
}

func TestPrecision32IsExact(t *testing.T) {
	e, g := newEngine(t, 32, 32, 8)
	res, err := e.Read(context.Background(), Request{Field: "elevation", Level: LevelFull, PrecisionBits: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, res.Grid) {
		t.Error("32-bit precision altered data")
	}
}

func TestProgressiveRefinesToFull(t *testing.T) {
	e, g := newEngine(t, 128, 128, 10)
	var levels []int
	var lastGrid *raster.Grid
	err := e.Progressive(context.Background(), Request{Field: "elevation", Level: LevelFull}, 4, 2, func(r Result) error {
		levels = append(levels, r.Level)
		lastGrid = r.Grid
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) < 3 {
		t.Fatalf("only %d refinement steps", len(levels))
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			t.Fatalf("levels not increasing: %v", levels)
		}
	}
	if levels[len(levels)-1] != e.Dataset().Meta.MaxLevel() {
		t.Errorf("final level %d", levels[len(levels)-1])
	}
	if !raster.Equal(g, lastGrid) {
		t.Error("final progressive grid differs from source")
	}
}

func TestProgressiveEarlyStop(t *testing.T) {
	e, _ := newEngine(t, 128, 128, 10)
	stop := errors.New("enough")
	count := 0
	err := e.Progressive(context.Background(), Request{Field: "elevation", Level: LevelFull}, 0, 2, func(r Result) error {
		count++
		if count == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Errorf("err = %v", err)
	}
	if count != 2 {
		t.Errorf("callback ran %d times", count)
	}
}

func TestProgressiveCoarseLevelsCheapen(t *testing.T) {
	e, _ := newEngine(t, 256, 256, 12)
	var transfers []int64
	err := e.Progressive(context.Background(), Request{Field: "elevation", Level: LevelFull}, 2, 4, func(r Result) error {
		transfers = append(transfers, r.TransferBytes)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(transfers); i++ {
		if transfers[i] <= transfers[i-1] {
			t.Fatalf("transfer bytes not increasing with refinement: %v", transfers)
		}
	}
	if transfers[0]*100 > transfers[len(transfers)-1] {
		t.Errorf("first preview %d bytes vs full %d; expected >=100x gap", transfers[0], transfers[len(transfers)-1])
	}
}

func TestProgressiveSubregion(t *testing.T) {
	e, g := newEngine(t, 128, 128, 10)
	box := idx.Box{X0: 32, Y0: 48, X1: 96, Y1: 112}
	var last Result
	err := e.Progressive(context.Background(), Request{Field: "elevation", Box: box, Level: LevelFull}, 0, 3, func(r Result) error {
		last = r
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.Grid.W != 64 || last.Grid.H != 64 {
		t.Fatalf("final dims %dx%d", last.Grid.W, last.Grid.H)
	}
	want, _ := g.Crop(32, 48, 64, 64)
	if !raster.Equal(want, last.Grid) {
		t.Error("subregion progressive mismatch")
	}
}

func TestCacheWarmsAcrossReads(t *testing.T) {
	e, _ := newEngine(t, 64, 64, 8)
	r1, err := e.Read(context.Background(), Request{Field: "elevation", Level: LevelFull})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.BlocksRead == 0 {
		t.Error("cold read fetched nothing")
	}
	r2, err := e.Read(context.Background(), Request{Field: "elevation", Level: LevelFull})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.BlocksRead != 0 {
		t.Errorf("warm read still fetched %d blocks", r2.Stats.BlocksRead)
	}
	if e.CacheStats().Hits == 0 {
		t.Error("cache reported no hits")
	}
}

func TestProbePoint(t *testing.T) {
	meta, err := idx.NewMeta([]int{16, 16}, []idx.Field{{Name: "f", Type: idx.Float32}})
	if err != nil {
		t.Fatal(err)
	}
	meta.Timesteps = 4
	ds, err := idx.Create(context.Background(), storage.NewIDXBackend(storage.NewMemStore(), ""), meta)
	if err != nil {
		t.Fatal(err)
	}
	for ts := 0; ts < 4; ts++ {
		g := raster.New(16, 16)
		for i := range g.Data {
			g.Data[i] = float32(1000*ts + i)
		}
		if err := ds.WriteGrid(context.Background(), "f", ts, g); err != nil {
			t.Fatal(err)
		}
	}
	e := New(ds, 1<<20)
	values, err := e.ProbePoint(context.Background(), "f", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 4 {
		t.Fatalf("%d values", len(values))
	}
	for ts, v := range values {
		want := float32(1000*ts + 2*16 + 3)
		if v != want {
			t.Errorf("t=%d: %v, want %v", ts, v, want)
		}
	}
	if _, err := e.ProbePoint(context.Background(), "f", 99, 0); err == nil {
		t.Error("out-of-range probe accepted")
	}
	if _, err := e.ProbePoint(context.Background(), "nope", 0, 0); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestSamplesAtLevel(t *testing.T) {
	e, _ := newEngine(t, 64, 64, 8)
	ds := e.Dataset()
	if n := SamplesAtLevel(ds, ds.FullBox(), ds.Meta.MaxLevel()); n != 64*64 {
		t.Errorf("full level samples = %d", n)
	}
	if n := SamplesAtLevel(ds, ds.FullBox(), 0); n != 1 {
		t.Errorf("level 0 samples = %d", n)
	}
	if n := SamplesAtLevel(ds, idx.Box{X0: 1, Y0: 1, X1: 2, Y1: 2}, 0); n != 0 {
		t.Errorf("off-lattice box at level 0 = %d", n)
	}
}

func BenchmarkProgressiveFull256(b *testing.B) {
	meta, _ := idx.NewMeta([]int{256, 256}, []idx.Field{{Name: "elevation", Type: idx.Float32, Codec: "zlib"}})
	meta.BitsPerBlock = 12
	ds, _ := idx.Create(context.Background(), storage.NewIDXBackend(storage.NewMemStore(), ""), meta)
	g := dem.Scale(dem.FBM(256, 256, 1, dem.DefaultFBM()), 0, 2000)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		b.Fatal(err)
	}
	e := New(ds, 1<<22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := e.Progressive(context.Background(), Request{Field: "elevation", Level: LevelFull}, 4, 4, func(Result) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestResolve(t *testing.T) {
	e, _ := newEngine(t, 32, 32, 8)
	maxLevel := e.Dataset().Meta.MaxLevel()
	got, err := e.Resolve(Request{Level: LevelFull, Z: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := Request{Field: "elevation", Box: idx.Box{X1: 32, Y1: 32}, Level: maxLevel}
	if got != want {
		t.Errorf("defaults resolved to %+v, want %+v (a 2D dataset ignores Z)", got, want)
	}
	auto, err := e.Resolve(Request{Box: idx.Box{X0: -4, Y0: 8, X1: 99, Y1: 24}, Level: LevelAuto, MaxSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Box != (idx.Box{Y0: 8, X1: 32, Y1: 24}) || auto.Level < 0 || auto.Level >= maxLevel {
		t.Errorf("auto request resolved to %+v", auto)
	}
	if again, err := e.Resolve(auto); err != nil || again != auto {
		t.Errorf("resolving %+v again gave %+v, %v", auto, again, err)
	}
	for _, bad := range []Request{
		{Field: "nope"},
		{Time: -1}, {Time: 1},
		{Box: idx.Box{X0: 10, X1: 5, Y1: 4}},
		{Level: -5}, {Level: maxLevel + 1},
		{MaxSamples: -1},
		{PrecisionBits: -1}, {PrecisionBits: 33},
	} {
		if _, err := e.Resolve(bad); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

// TestReadVolumePlane: a 3D dataset is read as the XY plane at Z, aligned
// down to the level's Z lattice, and a sample budget bounds the plane.
func TestReadVolumePlane(t *testing.T) {
	ctx := context.Background()
	meta, err := idx.NewMeta([]int{16, 8, 4}, []idx.Field{{Name: "density", Type: idx.Float32}})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := idx.Create(ctx, storage.NewIDXBackend(storage.NewMemStore(), ""), meta)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float32, 16*8*4)
	for i := range data {
		data[i] = float32(i) // x + 16y + 128z
	}
	if err := ds.WriteVolume(ctx, "density", 0, data); err != nil {
		t.Fatal(err)
	}
	e := New(ds, 1<<20)
	res, err := e.Read(ctx, Request{Box: idx.Box{X0: 2, Y0: 3, X1: 6, Y1: 5}, Level: LevelFull, Z: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grid.W != 4 || res.Grid.H != 2 || res.Grid.At(0, 0) != 2+16*3+128*3 {
		t.Errorf("plane 3: %dx%d starting at %v", res.Grid.W, res.Grid.H, res.Grid.At(0, 0))
	}
	if res.TransferBytes != 4*2*4 {
		t.Errorf("TransferBytes = %d", res.TransferBytes)
	}
	res, err = e.Read(ctx, Request{Level: LevelAuto, MaxSamples: 20, Z: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Grid.Data); n == 0 || n > 20 {
		t.Errorf("budget of 20 delivered %d samples", n)
	}
	sz := ds.Meta.Bits.LevelStrides(res.Level)[2]
	if got, want := res.Grid.At(0, 0), float32(128*(3/sz*sz)); got != want {
		t.Errorf("level %d plane starts at %v, want %v (z aligned to stride %d)", res.Level, got, want, sz)
	}
	for _, z := range []int{-1, 4} {
		if _, err := e.Resolve(Request{Z: z}); err == nil {
			t.Errorf("z=%d accepted", z)
		}
	}
}
