package idx

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/trace"
)

func float32Fields() []Field {
	return []Field{{Name: "elevation", Type: Float32, Codec: "zlib"}}
}

// newBackend returns a backend on a fresh storage.MemStore, the store
// the dashboard's demo dataset lives in.
func newBackend() *storage.IDXBackend {
	return storage.NewIDXBackend(storage.NewMemStore(), "")
}

// footprint returns how many objects be holds and their total size.
func footprint(t testing.TB, be Backend) (objects int, bytes int64) {
	t.Helper()
	ctx := context.Background()
	names, err := be.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := be.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		bytes += int64(len(data))
	}
	return len(names), bytes
}

func newTestDataset(t *testing.T, w, h int, fields []Field) (*Dataset, *storage.IDXBackend) {
	t.Helper()
	meta, err := NewMeta([]int{w, h}, fields)
	if err != nil {
		t.Fatal(err)
	}
	be := newBackend()
	ds, err := Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	return ds, be
}

func rampGrid(w, h int) *raster.Grid {
	g := raster.New(w, h)
	for i := range g.Data {
		g.Data[i] = float32(i)
	}
	return g
}

// getSample decodes the dtype-dt sample at src: gatherRow on a row of one.
func getSample(dt DType, src []byte) float32 {
	var v [1]float32
	dt.gatherRow(v[:], 1, src, 0, []uint32{0})
	return v[0]
}

func TestDTypeRoundTrip(t *testing.T) {
	buf := make([]byte, 8)
	cases := []struct {
		d DType
		v float32
	}{
		{Float32, 3.25}, {Float64, -17.5}, {Uint8, 200}, {Uint16, 60000},
		{Int16, -300}, {Uint32, 100000},
	}
	for _, c := range cases {
		c.d.putSample(buf, c.v)
		if got := getSample(c.d, buf); got != c.v {
			t.Errorf("%v: %v -> %v", c.d, c.v, got)
		}
	}
}

func TestDTypeClamping(t *testing.T) {
	buf := make([]byte, 8)
	Uint8.putSample(buf, 300)
	if got := getSample(Uint8, buf); got != 255 {
		t.Errorf("uint8 clamp high: %v", got)
	}
	Uint8.putSample(buf, -5)
	if got := getSample(Uint8, buf); got != 0 {
		t.Errorf("uint8 clamp low: %v", got)
	}
	Int16.putSample(buf, float32(math.NaN()))
	if got := getSample(Int16, buf); got != 0 {
		t.Errorf("int16 NaN: %v", got)
	}
}

func TestParseDType(t *testing.T) {
	for _, d := range []DType{Float32, Float64, Uint8, Uint16, Int16, Uint32} {
		got, err := ParseDType(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDType(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDType("complex128"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestMetaMarshalRoundTrip(t *testing.T) {
	meta, err := NewMeta([]int{300, 200}, []Field{
		{Name: "elevation", Type: Float32, Codec: "zlib", Fill: -1},
		{Name: "hillshade", Type: Uint8, Codec: "lz4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	meta.Timesteps = 5
	meta.Geo = &raster.Georef{OriginX: -90.31, OriginY: 36.68, PixelW: 0.0003, PixelH: 0.0004}
	text, err := meta.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Meta
	if err := back.UnmarshalText(text); err != nil {
		t.Fatalf("UnmarshalText: %v\n%s", err, text)
	}
	if back.Dims[0] != 300 || back.Dims[1] != 200 {
		t.Errorf("dims %v", back.Dims)
	}
	if back.Bits.String() != meta.Bits.String() {
		t.Errorf("bits %s != %s", back.Bits, meta.Bits)
	}
	if back.Timesteps != 5 {
		t.Errorf("timesteps %d", back.Timesteps)
	}
	if len(back.Fields) != 2 || back.Fields[0].Fill != -1 || back.Fields[1].Codec != "lz4" {
		t.Errorf("fields %+v", back.Fields)
	}
	if back.Geo == nil || back.Geo.OriginY != 36.68 {
		t.Errorf("geo %+v", back.Geo)
	}
}

func TestMetaValidation(t *testing.T) {
	if _, err := NewMeta(nil, float32Fields()); err == nil {
		t.Error("no dims accepted")
	}
	if _, err := NewMeta([]int{0, 5}, float32Fields()); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := NewMeta([]int{4, 4}, nil); err == nil {
		t.Error("no fields accepted")
	}
	if _, err := NewMeta([]int{4, 4}, []Field{{Name: "bad name!", Type: Float32, Codec: "zlib"}}); err == nil {
		t.Error("invalid field name accepted")
	}
	if _, err := NewMeta([]int{4, 4}, []Field{
		{Name: "a", Type: Float32, Codec: "zlib"},
		{Name: "a", Type: Float32, Codec: "zlib"},
	}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := NewMeta([]int{4, 4}, []Field{{Name: "a", Type: Float32, Codec: "snappy"}}); err == nil {
		t.Error("unknown codec accepted")
	}
	huge, err := NewMeta([]int{1 << 20, 1 << 20}, float32Fields())
	if err != nil {
		t.Fatal(err)
	}
	huge.BitsPerBlock = 33
	if huge.Validate() == nil {
		t.Error("block of 2^33 samples accepted")
	}
}

func TestMetaUnmarshalRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"idx(2)\nbox 0 3 0 3\nbits V0101\nbitsperblock 4\ntimesteps 1\nfield a float32 zlib",
		"idx(1)\nbox 0 3\nbits V0101\nbitsperblock 4\ntimesteps 1\nfield a float32 zlib",
		"idx(1)\nbox 0 3 0 3\nbits V0101\nbitsperblock 99\ntimesteps 1\nfield a float32 zlib",
		"idx(1)\nbox 0 3 0 3\nbits V0101\nbitsperblock 4\ntimesteps 0\nfield a float32 zlib",
		"idx(1)\nbox 0 3 0 3\nbits V0101\nbitsperblock 4\ntimesteps 1\nnonsense x",
	}
	for i, text := range cases {
		var m Meta
		if err := m.UnmarshalText([]byte(text)); err == nil {
			t.Errorf("case %d: accepted", i)
		}
	}
}

func TestMetaCommentsAndBlanksIgnored(t *testing.T) {
	text := "# a comment\nidx(1)\n\nbox 0 3 0 3\nbits V0101\nbitsperblock 4\ntimesteps 1\nfield a float32 zlib fill=0\n"
	var m Meta
	if err := m.UnmarshalText([]byte(text)); err != nil {
		t.Fatal(err)
	}
}

func TestNumBlocks(t *testing.T) {
	meta, _ := NewMeta([]int{256, 256}, float32Fields())
	// 16 bits total... 256x256 = 2^16 samples, default bitsperblock 16 -> 1 block.
	if meta.NumBlocks() != 1 {
		t.Errorf("NumBlocks = %d, want 1", meta.NumBlocks())
	}
	meta.BitsPerBlock = 12
	if meta.NumBlocks() != 16 {
		t.Errorf("NumBlocks = %d, want 16", meta.NumBlocks())
	}
}

// TestWriteReadFullResolution round-trips a grid written under a traced
// request on a dataset with telemetry, so the write books its latency
// once, and its encode stage once into the histogram and once as a span.
func TestWriteReadFullResolution(t *testing.T) {
	const w, h = 100, 60
	ds, _ := newTestDataset(t, w, h, float32Fields())
	reg := telemetry.NewRegistry()
	ds.SetTelemetry(reg, "ramp")
	g := rampGrid(w, h)
	root := trace.NewCollector(1).StartTrace("", "write")
	if err := ds.WriteGrid(trace.NewContext(context.Background(), root), "elevation", 0, g); err != nil {
		t.Fatal(err)
	}
	root.End()
	if n := reg.Histogram("nsdf_idx_stage_seconds", "stage", "encode", "dataset", "ramp").Snapshot().Count; n != 1 {
		t.Errorf("encode stage observations = %d, want 1", n)
	}
	if n := reg.Histogram("nsdf_idx_write_seconds", "dataset", "ramp").Snapshot().Count; n != 1 {
		t.Errorf("write latency observations = %d, want 1", n)
	}
	encodes := 0
	for _, sp := range root.Finished().Spans {
		if sp.Name == "idx.encode" && sp.Attrs["dataset"] == "ramp" {
			encodes++
		}
	}
	if encodes != 1 {
		t.Errorf("idx.encode spans = %d, want 1", encodes)
	}
	out, stats, err := ds.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, out) {
		t.Error("full-resolution round trip mismatch")
	}
	if stats.Samples != w*h {
		t.Errorf("stats.Samples = %d", stats.Samples)
	}
	if stats.BlocksRead == 0 {
		t.Error("no blocks read")
	}
}

func TestReadBoxSubregion(t *testing.T) {
	const w, h = 64, 64
	ds, _ := newTestDataset(t, w, h, float32Fields())
	g := rampGrid(w, h)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		t.Fatal(err)
	}
	out, _, err := ds.ReadBox(context.Background(), "elevation", 0, Box{10, 20, 30, 25}, ds.Meta.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if out.W != 20 || out.H != 5 {
		t.Fatalf("subregion dims %dx%d, want 20x5", out.W, out.H)
	}
	for y := 0; y < 5; y++ {
		for x := 0; x < 20; x++ {
			want := g.At(10+x, 20+y)
			if got := out.At(x, y); got != want {
				t.Fatalf("(%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
}

func TestReadBoxCoarseLevels(t *testing.T) {
	const w, h = 64, 64
	ds, _ := newTestDataset(t, w, h, float32Fields())
	g := rampGrid(w, h)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		t.Fatal(err)
	}
	mask := ds.Meta.Bits
	for level := 0; level <= ds.Meta.MaxLevel(); level++ {
		out, _, err := ds.ReadBox(context.Background(), "elevation", 0, ds.FullBox(), level)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		s := mask.LevelStrides(level)
		wantW := (w + s[0] - 1) / s[0]
		wantH := (h + s[1] - 1) / s[1]
		if out.W != wantW || out.H != wantH {
			t.Fatalf("level %d: dims %dx%d, want %dx%d", level, out.W, out.H, wantW, wantH)
		}
		// Every returned sample must equal the grid at the lattice point.
		for oy := 0; oy < out.H; oy++ {
			for ox := 0; ox < out.W; ox++ {
				want := g.At(ox*s[0], oy*s[1])
				if got := out.At(ox, oy); got != want {
					t.Fatalf("level %d: (%d,%d) = %v, want %v", level, ox, oy, got, want)
				}
			}
		}
	}
}

func TestCoarseLevelsReadFewerBytes(t *testing.T) {
	// The core progressive-streaming property: coarse levels touch far
	// fewer blocks/bytes than full resolution.
	const w, h = 512, 512
	meta, err := NewMeta([]int{w, h}, float32Fields())
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 12
	be := newBackend()
	ds, err := Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	g := dem.Scale(dem.FBM(w, h, 1, dem.DefaultFBM()), 0, 2000)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		t.Fatal(err)
	}
	_, coarse, err := ds.ReadBox(context.Background(), "elevation", 0, ds.FullBox(), 6)
	if err != nil {
		t.Fatal(err)
	}
	_, fine, err := ds.ReadBox(context.Background(), "elevation", 0, ds.FullBox(), ds.Meta.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if coarse.BytesRead*10 > fine.BytesRead {
		t.Errorf("coarse read %d bytes vs fine %d; expected >=10x reduction", coarse.BytesRead, fine.BytesRead)
	}
	if coarse.BlocksRead >= fine.BlocksRead {
		t.Errorf("coarse blocks %d >= fine blocks %d", coarse.BlocksRead, fine.BlocksRead)
	}
}

func TestReadBoxSmallBoxTouchesFewBlocks(t *testing.T) {
	const w, h = 512, 512
	meta, _ := NewMeta([]int{w, h}, float32Fields())
	meta.BitsPerBlock = 10
	be := newBackend()
	ds, _ := Create(context.Background(), be, meta)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(w, h)); err != nil {
		t.Fatal(err)
	}
	_, small, err := ds.ReadBox(context.Background(), "elevation", 0, Box{100, 100, 116, 116}, ds.Meta.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	total := ds.Meta.NumBlocks()
	if small.BlocksRead*4 > total {
		t.Errorf("16x16 box read %d of %d blocks", small.BlocksRead, total)
	}
}

func TestMultipleFieldsAndTimesteps(t *testing.T) {
	meta, _ := NewMeta([]int{32, 32}, []Field{
		{Name: "elevation", Type: Float32, Codec: "zlib"},
		{Name: "slope", Type: Float32, Codec: "lz4"},
	})
	meta.Timesteps = 3
	be := newBackend()
	ds, err := Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"elevation", "slope"} {
		for ts := 0; ts < 3; ts++ {
			g := rampGrid(32, 32)
			for i := range g.Data {
				g.Data[i] += float32(1000*ts) + float32(len(f))
			}
			if err := ds.WriteGrid(context.Background(), f, ts, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, f := range []string{"elevation", "slope"} {
		for ts := 0; ts < 3; ts++ {
			out, _, err := ds.ReadFull(context.Background(), f, ts)
			if err != nil {
				t.Fatal(err)
			}
			want := float32(1000*ts) + float32(len(f))
			if out.Data[0] != want {
				t.Errorf("%s t%d: [0] = %v, want %v", f, ts, out.Data[0], want)
			}
		}
	}
}

func TestOpenExistingDataset(t *testing.T) {
	ds, be := newTestDataset(t, 48, 32, float32Fields())
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(48, 32)); err != nil {
		t.Fatal(err)
	}
	ds2, err := Open(context.Background(), be)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ds2.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(5, 5) != float32(5*48+5) {
		t.Errorf("reopened dataset read wrong value %v", out.At(5, 5))
	}
}

func TestOpenMissingDescriptor(t *testing.T) {
	if _, err := Open(context.Background(), newBackend()); err == nil {
		t.Error("Open on empty backend succeeded")
	}
}

func TestWriteGridValidation(t *testing.T) {
	ds, _ := newTestDataset(t, 16, 16, float32Fields())
	if err := ds.WriteGrid(context.Background(), "nope", 0, rampGrid(16, 16)); err == nil {
		t.Error("unknown field accepted")
	}
	if err := ds.WriteGrid(context.Background(), "elevation", 9, rampGrid(16, 16)); err == nil {
		t.Error("bad timestep accepted")
	}
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(8, 8)); err == nil {
		t.Error("mismatched grid accepted")
	}
}

func TestReadBoxValidation(t *testing.T) {
	ds, _ := newTestDataset(t, 16, 16, float32Fields())
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(16, 16)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ds.ReadBox(context.Background(), "nope", 0, ds.FullBox(), 1); err == nil {
		t.Error("unknown field accepted")
	}
	if _, _, err := ds.ReadBox(context.Background(), "elevation", 0, ds.FullBox(), -1); err == nil {
		t.Error("negative level accepted")
	}
	if _, _, err := ds.ReadBox(context.Background(), "elevation", 0, ds.FullBox(), 99); err == nil {
		t.Error("excessive level accepted")
	}
	if _, _, err := ds.ReadBox(context.Background(), "elevation", 0, Box{5, 5, 5, 9}, 8); err == nil {
		t.Error("empty box accepted")
	}
	if _, _, err := ds.ReadBox(context.Background(), "elevation", 0, Box{-10, -10, -5, -5}, 8); err == nil {
		t.Error("fully outside box accepted")
	}
}

func TestReadBoxClipsToDataset(t *testing.T) {
	ds, _ := newTestDataset(t, 16, 16, float32Fields())
	g := rampGrid(16, 16)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		t.Fatal(err)
	}
	out, _, err := ds.ReadBox(context.Background(), "elevation", 0, Box{-5, -5, 100, 100}, ds.Meta.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if out.W != 16 || out.H != 16 {
		t.Errorf("clipped dims %dx%d", out.W, out.H)
	}
}

func TestNaNSurvivesRoundTrip(t *testing.T) {
	ds, _ := newTestDataset(t, 8, 8, float32Fields())
	g := rampGrid(8, 8)
	g.Set(3, 3, float32(math.NaN()))
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		t.Fatal(err)
	}
	out, _, err := ds.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(out.At(3, 3))) {
		t.Errorf("NaN lost: %v", out.At(3, 3))
	}
}

func TestGeorefAdjustedForBoxAndLevel(t *testing.T) {
	meta, _ := NewMeta([]int{64, 64}, float32Fields())
	meta.Geo = &raster.Georef{OriginX: -90, OriginY: 36, PixelW: 0.01, PixelH: 0.01}
	be := newBackend()
	ds, _ := Create(context.Background(), be, meta)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(64, 64)); err != nil {
		t.Fatal(err)
	}
	out, _, err := ds.ReadBox(context.Background(), "elevation", 0, Box{32, 16, 64, 64}, ds.Meta.MaxLevel()-2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Geo == nil {
		t.Fatal("no georef on result")
	}
	if out.Geo.OriginX <= -90 || out.Geo.PixelW <= 0.01 {
		t.Errorf("georef not adjusted: %+v", out.Geo)
	}
}

func TestUint8FieldRoundTrip(t *testing.T) {
	meta, _ := NewMeta([]int{32, 32}, []Field{{Name: "hillshade", Type: Uint8, Codec: "zlib"}})
	be := newBackend()
	ds, _ := Create(context.Background(), be, meta)
	g := raster.New(32, 32)
	for i := range g.Data {
		g.Data[i] = float32(i % 256)
	}
	if err := ds.WriteGrid(context.Background(), "hillshade", 0, g); err != nil {
		t.Fatal(err)
	}
	out, _, err := ds.ReadFull(context.Background(), "hillshade", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, out) {
		t.Error("uint8 round trip mismatch")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, wRaw, hRaw uint8) bool {
		w := int(wRaw%50) + 2
		h := int(hRaw%50) + 2
		meta, err := NewMeta([]int{w, h}, float32Fields())
		if err != nil {
			return false
		}
		meta.BitsPerBlock = 6
		if meta.BitsPerBlock > meta.Bits.Bits() {
			meta.BitsPerBlock = meta.Bits.Bits()
		}
		be := newBackend()
		ds, err := Create(context.Background(), be, meta)
		if err != nil {
			return false
		}
		g := dem.Scale(dem.FBM(w, h, uint64(seed), dem.DefaultFBM()), -100, 3000)
		if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
			return false
		}
		out, _, err := ds.ReadFull(context.Background(), "elevation", 0)
		if err != nil {
			return false
		}
		return raster.Equal(g, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStoredBytes(t *testing.T) {
	ds, be := newTestDataset(t, 64, 64, float32Fields())
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(64, 64)); err != nil {
		t.Fatal(err)
	}
	n, err := ds.StoredBytes(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Errorf("StoredBytes = %d", n)
	}
	meta, _ := be.Get(context.Background(), MetaObjectName)
	if _, total := footprint(t, be); total != n+int64(len(meta)) {
		t.Errorf("backend holds %d bytes, blocks %d + meta %d", total, n, len(meta))
	}
}

func TestBlockCacheUsed(t *testing.T) {
	ds, _ := newTestDataset(t, 64, 64, float32Fields())
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(64, 64)); err != nil {
		t.Fatal(err)
	}
	c := cache.NewMemTiered(1 << 20)
	ds.SetCache(c)
	blocks := int64(ds.Meta.NumBlocks())
	if _, stats, err := ds.ReadFull(context.Background(), "elevation", 0); err != nil {
		t.Fatal(err)
	} else if stats.BlocksCached != 0 {
		t.Errorf("cold read reported %d cached blocks", stats.BlocksCached)
	}
	// The Peek pre-pass books no miss; each block's one fill does.
	if s := c.Stats(); s.Hits != 0 || s.Misses != blocks {
		t.Errorf("cold read: hits=%d misses=%d, want 0 and %d", s.Hits, s.Misses, blocks)
	}
	_, stats, err := ds.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksRead != 0 {
		t.Errorf("warm read fetched %d blocks from backend", stats.BlocksRead)
	}
	if s := c.Stats(); s.Hits != blocks || s.Misses != blocks {
		t.Errorf("warm read: hits=%d misses=%d, want %d and %d", s.Hits, s.Misses, blocks, blocks)
	}
}

func TestMetaDescriptorIsHumanReadable(t *testing.T) {
	meta, _ := NewMeta([]int{100, 50}, float32Fields())
	text, _ := meta.MarshalText()
	for _, want := range []string{"idx(1)", "box 0 99 0 49", "bitsperblock", "field elevation float32 zlib"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("descriptor missing %q:\n%s", want, text)
		}
	}
}

func BenchmarkWriteGrid256(b *testing.B) {
	meta, _ := NewMeta([]int{256, 256}, float32Fields())
	meta.BitsPerBlock = 14
	g := dem.Scale(dem.FBM(256, 256, 1, dem.DefaultFBM()), 0, 2000)
	b.SetBytes(int64(4 * 256 * 256))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, _ := Create(context.Background(), newBackend(), meta)
		if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFull256(b *testing.B) {
	meta, _ := NewMeta([]int{256, 256}, float32Fields())
	meta.BitsPerBlock = 14
	ds, _ := Create(context.Background(), newBackend(), meta)
	g := dem.Scale(dem.FBM(256, 256, 1, dem.DefaultFBM()), 0, 2000)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * 256 * 256))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.ReadFull(context.Background(), "elevation", 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCoarseLevel(b *testing.B) {
	meta, _ := NewMeta([]int{512, 512}, float32Fields())
	meta.BitsPerBlock = 12
	ds, _ := Create(context.Background(), newBackend(), meta)
	g := dem.Scale(dem.FBM(512, 512, 1, dem.DefaultFBM()), 0, 2000)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.ReadBox(context.Background(), "elevation", 0, ds.FullBox(), 8); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFullWriteInvalidatesCache checks cache coherence, one row per
// writer: after a second WriteGrid or WriteVolume through a dataset with
// an attached cache, no read may be served the first write's samples.
// A write removes each block's key, so the read after one goes to the
// backend.
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
		ds, err := Create(ctx, newBackend(), meta)
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
