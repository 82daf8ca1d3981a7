package convert

import (
	"bytes"
	"context"
	"encoding/binary"
	"image"
	"image/color"
	"image/png"
	"math"
	"testing"

	"nsdfgo/internal/netcdf"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/tiff"
)

func testGrid(w, h int) *raster.Grid {
	g := raster.New(w, h)
	for i := range g.Data {
		g.Data[i] = float32(i) * 0.5
	}
	return g
}

func encodeTIFF(t *testing.T, g *raster.Grid) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tiff.Encode(&buf, tiff.FromGrid(g), tiff.EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeNetCDF(t *testing.T, g *raster.Grid) []byte {
	t.Helper()
	f, err := netcdf.FromGrid("elevation", g, "m")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSniff(t *testing.T) {
	g := testGrid(4, 4)
	cases := []struct {
		name string
		data []byte
		want Format
	}{
		{"x.tif", encodeTIFF(t, g), FormatTIFF},
		{"x.nc", encodeNetCDF(t, g), FormatNetCDF},
		{"x.png", encodePNG(t, 4, 4), FormatPNG},
		{"x.raw", make([]byte, 64), FormatRaw},
		{"x.f32", make([]byte, 64), FormatRaw},
	}
	for _, c := range cases {
		got, err := Sniff(c.name, c.data)
		if err != nil || got != c.want {
			t.Errorf("Sniff(%s) = %q, %v; want %q", c.name, got, err, c.want)
		}
	}
	if _, err := Sniff("mystery.xyz", []byte("???")); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := Sniff("x.h5", []byte("\x89HDF\r\n\x1a\n-rest")); err == nil {
		t.Error("HDF5 should be rejected with guidance")
	}
}

// TestSniffTIFFMagicFullWidth is the regression test for the sniffing
// bug where any payload starting with "II" or "MM" was routed to the
// TIFF decoder: raw float32 data whose first bytes happen to spell a
// byte-order mark must still sniff as raw, and only the full 4-byte
// magic (order mark plus the constant 42) means TIFF.
func TestSniffTIFFMagicFullWidth(t *testing.T) {
	// Little-endian float32 payloads that start with "II" / "MM" but are
	// not TIFF: the first sample's low bytes collide with the mark.
	for _, prefix := range []string{"II", "MM", "II*A", "MM\x00B", "IIxx", "MM*\x00"} {
		data := append([]byte(prefix), make([]byte, 62)...)
		got, err := Sniff("dem.raw", data)
		if err != nil || got != FormatRaw {
			t.Errorf("Sniff(dem.raw, %q...) = %q, %v; want raw", prefix, got, err)
		}
	}
	// The true 4-byte magics are TIFF regardless of extension.
	for _, magic := range []string{"II*\x00", "MM\x00*"} {
		data := append([]byte(magic), make([]byte, 60)...)
		got, err := Sniff("dem.raw", data)
		if err != nil || got != FormatTIFF {
			t.Errorf("Sniff(dem.raw, %q...) = %q, %v; want tiff", magic, got, err)
		}
	}
	// Truncated payloads shorter than the magic cannot be TIFF.
	if got, err := Sniff("x.raw", []byte("II")); err != nil || got != FormatRaw {
		t.Errorf("Sniff(x.raw, short) = %q, %v; want raw", got, err)
	}
}

func encodePNG(t *testing.T, w, h int) []byte {
	t.Helper()
	img := image.NewGray(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.SetGray(x, y, color.Gray{Y: uint8(16 * (y*w + x))})
		}
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRasterTIFF(t *testing.T) {
	g := testGrid(8, 6)
	out, err := LoadRaster("in.tif", encodeTIFF(t, g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, out) {
		t.Error("TIFF load mismatch")
	}
}

func TestLoadRasterNetCDF(t *testing.T) {
	g := testGrid(8, 6)
	g.Geo = &raster.Georef{OriginX: -100, OriginY: 40, PixelW: 0.1, PixelH: 0.1}
	data := encodeNetCDF(t, g)
	// Auto-pick the only 2D data variable.
	out, err := LoadRaster("in.nc", data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, out) {
		t.Error("NetCDF load mismatch")
	}
	if out.Geo == nil {
		t.Error("NetCDF georef lost")
	}
	// Explicit variable name.
	out2, err := LoadRaster("in.nc", data, Options{Variable: "elevation"})
	if err != nil || !raster.Equal(g, out2) {
		t.Errorf("explicit variable: %v", err)
	}
	if _, err := LoadRaster("in.nc", data, Options{Variable: "nope"}); err == nil {
		t.Error("unknown variable accepted")
	}
}

func TestLoadRasterPNG(t *testing.T) {
	out, err := LoadRaster("in.png", encodePNG(t, 4, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.W != 4 || out.H != 4 {
		t.Fatalf("dims %dx%d", out.W, out.H)
	}
	// Gray value 16 maps to luma ~16.
	if math.Abs(float64(out.At(1, 0))-16) > 1.0 {
		t.Errorf("luma(1,0) = %v, want ~16", out.At(1, 0))
	}
	if out.At(0, 0) >= out.At(3, 3) {
		t.Error("luma gradient lost")
	}
}

func TestLoadRasterRaw(t *testing.T) {
	g := testGrid(5, 3)
	raw := make([]byte, 4*len(g.Data))
	for i, v := range g.Data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	out, err := LoadRaster("in.raw", raw, Options{RawWidth: 5, RawHeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, out) {
		t.Error("raw load mismatch")
	}
	if _, err := LoadRaster("in.raw", raw, Options{}); err == nil {
		t.Error("raw without dims accepted")
	}
	if _, err := LoadRaster("in.raw", raw[:8], Options{RawWidth: 5, RawHeight: 3}); err == nil {
		t.Error("short raw accepted")
	}
}

func TestSanitizeFieldName(t *testing.T) {
	cases := map[string]string{
		"data/tennessee elevation (30m).tif": "tennessee_elevation__30m_",
		"x.nc":                               "x",
		"..":                                 "field", // degenerate names fall back
	}
	for in, want := range cases {
		if got := SanitizeFieldName(in); got != want {
			t.Errorf("SanitizeFieldName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestToIDXMultiFormat(t *testing.T) {
	// One TIFF-derived and one NetCDF-derived field in the same dataset.
	gA := testGrid(16, 8)
	gA.Geo = &raster.Georef{OriginX: 1, OriginY: 2, PixelW: 3, PixelH: 4}
	gB := testGrid(16, 8)
	for i := range gB.Data {
		gB.Data[i] += 1000
	}
	be := storage.NewIDXBackend(storage.NewMemStore(), "")
	ds, err := ToIDXWith(context.Background(), be, []Input{
		{FieldName: "from_tiff", Grid: gA},
		{FieldName: "from_netcdf", Grid: gB},
	}, IDXOptions{BitsPerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	outA, _, err := ds.ReadFull(context.Background(), "from_tiff", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(gA, outA) {
		t.Error("field A mismatch")
	}
	outB, _, err := ds.ReadFull(context.Background(), "from_netcdf", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(gB, outB) {
		t.Error("field B mismatch")
	}
	if ds.Meta.Geo == nil || ds.Meta.Geo.OriginX != 1 {
		t.Error("georef not propagated")
	}
}

func TestToIDXValidation(t *testing.T) {
	be := storage.NewIDXBackend(storage.NewMemStore(), "")
	if _, err := ToIDXWith(context.Background(), be, nil, IDXOptions{BitsPerBlock: 8}); err == nil {
		t.Error("empty inputs accepted")
	}
	if _, err := ToIDXWith(context.Background(), be, []Input{
		{FieldName: "a", Grid: testGrid(4, 4)},
		{FieldName: "b", Grid: testGrid(5, 4)},
	}, IDXOptions{BitsPerBlock: 8}); err == nil {
		t.Error("mismatched dims accepted")
	}
	if _, err := ToIDXWith(context.Background(), be, []Input{
		{FieldName: "a", Grid: testGrid(4, 4)},
		{FieldName: "a", Grid: testGrid(4, 4)},
	}, IDXOptions{BitsPerBlock: 8}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := ToIDXWith(context.Background(), be, []Input{{FieldName: "a", Grid: testGrid(4, 4)}}, IDXOptions{BitsPerBlock: 8, Codec: "nope"}); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestEndToEndNetCDFToIDX(t *testing.T) {
	// The full step-2 path for a NetCDF source: encode -> sniff -> load ->
	// ToIDX -> read back identical.
	g := testGrid(32, 20)
	data := encodeNetCDF(t, g)
	loaded, err := LoadRaster("soil.nc", data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ToIDXWith(context.Background(), storage.NewIDXBackend(storage.NewMemStore(), ""), []Input{{FieldName: SanitizeFieldName("soil.nc"), Grid: loaded}}, IDXOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := ds.ReadFull(context.Background(), "soil", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, back) {
		t.Error("NetCDF->IDX round trip mismatch")
	}
}
