package tiff

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nsdfgo/internal/raster"
)

// makeFloat32Image builds a deterministic float32 test image.
func makeFloat32Image(w, h int) *Image {
	pix := make([]byte, 4*w*h)
	for i := 0; i < w*h; i++ {
		v := float32(math.Sin(float64(i)/17) * 1000)
		binary.LittleEndian.PutUint32(pix[4*i:], math.Float32bits(v))
	}
	return &Image{Width: w, Height: h, Type: Float32, Pix: pix}
}

func roundTrip(t *testing.T, im *Image, opts EncodeOptions) *Image {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, im, opts); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return out
}

// TestRoundTripFloat32Uncompressed also covers an edge past 65 535
// pixels, which the encoder writes as a LONG rather than a SHORT.
func TestRoundTripFloat32Uncompressed(t *testing.T) {
	for _, dims := range [][2]int{{37, 23}, {70000, 1}, {1, 70000}} {
		im := makeFloat32Image(dims[0], dims[1])
		out := roundTrip(t, im, EncodeOptions{})
		if out.Width != dims[0] || out.Height != dims[1] || out.Type != Float32 {
			t.Fatalf("%dx%d: got %dx%d %v", dims[0], dims[1], out.Width, out.Height, out.Type)
		}
		if !bytes.Equal(out.Pix, im.Pix) {
			t.Errorf("%dx%d: pixel data mismatch", dims[0], dims[1])
		}
	}
}

func TestRoundTripFloat32Deflate(t *testing.T) {
	im := makeFloat32Image(64, 64)
	var buf bytes.Buffer
	if err := Encode(&buf, im, EncodeOptions{Compression: CompressionDeflate}); err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := Encode(&raw, im, EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= raw.Len() {
		t.Errorf("deflate (%d bytes) not smaller than raw (%d bytes) on smooth data", buf.Len(), raw.Len())
	}
	out, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Pix, im.Pix) {
		t.Error("pixel data mismatch after deflate round trip")
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	const w, h = 9, 5
	for _, dt := range []DType{Uint8, Uint16, Uint32, Int16, Float32, Float64} {
		pix := make([]byte, w*h*dt.Size())
		r := rand.New(rand.NewSource(int64(dt)))
		r.Read(pix)
		if dt == Float32 || dt == Float64 {
			// Avoid random NaN payload bit patterns comparing unequal after
			// a float trip: raw bytes are preserved anyway, so keep as-is.
			_ = pix
		}
		im := &Image{Width: w, Height: h, Type: dt, Pix: pix}
		for _, comp := range []int{CompressionNone, CompressionDeflate} {
			out := roundTrip(t, im, EncodeOptions{Compression: comp})
			if out.Type != dt {
				t.Errorf("%v/comp=%d: type became %v", dt, comp, out.Type)
			}
			if !bytes.Equal(out.Pix, pix) {
				t.Errorf("%v/comp=%d: pixel mismatch", dt, comp)
			}
		}
	}
}

func TestRoundTripMultipleStrips(t *testing.T) {
	im := makeFloat32Image(16, 100)
	out := roundTrip(t, im, EncodeOptions{RowsPerStrip: 7})
	if !bytes.Equal(out.Pix, im.Pix) {
		t.Error("pixel mismatch with 7-row strips")
	}
}

func TestRoundTripSinglePixel(t *testing.T) {
	im := &Image{Width: 1, Height: 1, Type: Uint8, Pix: []byte{200}}
	out := roundTrip(t, im, EncodeOptions{})
	if out.Pix[0] != 200 {
		t.Errorf("pixel = %d", out.Pix[0])
	}
}

func TestGeoTIFFTags(t *testing.T) {
	im := makeFloat32Image(8, 8)
	im.Geo = &raster.Georef{OriginX: -90.25, OriginY: 36.5, PixelW: 0.000277, PixelH: 0.000277}
	out := roundTrip(t, im, EncodeOptions{})
	if out.Geo == nil {
		t.Fatal("georeferencing lost")
	}
	if out.Geo.OriginX != im.Geo.OriginX || out.Geo.OriginY != im.Geo.OriginY {
		t.Errorf("origin %v,%v", out.Geo.OriginX, out.Geo.OriginY)
	}
	if out.Geo.PixelW != im.Geo.PixelW || out.Geo.PixelH != im.Geo.PixelH {
		t.Errorf("pixel scale %v,%v", out.Geo.PixelW, out.Geo.PixelH)
	}
}

func TestEncodeValidates(t *testing.T) {
	bad := &Image{Width: 4, Height: 4, Type: Float32, Pix: make([]byte, 10)}
	if err := Encode(&bytes.Buffer{}, bad, EncodeOptions{}); err == nil {
		t.Error("short pixel buffer accepted")
	}
	bad2 := &Image{Width: 0, Height: 4, Type: Float32, Pix: nil}
	if err := Encode(&bytes.Buffer{}, bad2, EncodeOptions{}); err == nil {
		t.Error("zero width accepted")
	}
	im := makeFloat32Image(2, 2)
	if err := Encode(&bytes.Buffer{}, im, EncodeOptions{Compression: 5}); err == nil {
		t.Error("LZW compression accepted (unsupported)")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"short":     {'I', 'I', 42},
		"bad order": {'X', 'X', 42, 0, 8, 0, 0, 0},
		"bad magic": {'I', 'I', 43, 0, 8, 0, 0, 0},
		"bad ifd":   {'I', 'I', 42, 0, 255, 255, 255, 255},
	}
	for name, data := range cases {
		if _, err := DecodeBytes(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestDecodeBigEndian(t *testing.T) {
	// Hand-build a minimal big-endian 2x1 uint16 TIFF.
	var buf bytes.Buffer
	be := binary.BigEndian
	w16 := func(v uint16) { binary.Write(&buf, be, v) }
	w32 := func(v uint32) { binary.Write(&buf, be, v) }
	buf.WriteString("MM")
	w16(42)
	w32(8) // IFD at 8... but we put pixel data after IFD.
	// IFD with 8 entries.
	w16(8)
	entry := func(tag, typ uint16, count, value uint32) {
		w16(tag)
		w16(typ)
		w32(count)
		w32(value)
	}
	// Values for SHORT type live in the high bytes of the value word in BE.
	shortVal := func(v uint16) uint32 { return uint32(v) << 16 }
	entry(tagImageWidth, typeShort, 1, shortVal(2))
	entry(tagImageLength, typeShort, 1, shortVal(1))
	entry(tagBitsPerSample, typeShort, 1, shortVal(16))
	entry(tagCompression, typeShort, 1, shortVal(1))
	entry(tagStripOffsets, typeLong, 1, 110)
	entry(tagRowsPerStrip, typeShort, 1, shortVal(1))
	entry(tagStripByteCounts, typeLong, 1, 4)
	entry(tagSampleFormat, typeShort, 1, shortVal(1))
	w32(0) // next IFD
	for buf.Len() < 110 {
		buf.WriteByte(0)
	}
	// Samples 0x0102=258 and 0x0304=772, big-endian.
	buf.Write([]byte{1, 2, 3, 4})

	im, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if im.Width != 2 || im.Height != 1 || im.Type != Uint16 {
		t.Fatalf("got %dx%d %v", im.Width, im.Height, im.Type)
	}
	if v := binary.LittleEndian.Uint16(im.Pix); v != 258 {
		t.Errorf("sample 0 = %d, want 258", v)
	}
	if v := binary.LittleEndian.Uint16(im.Pix[2:]); v != 772 {
		t.Errorf("sample 1 = %d, want 772", v)
	}
}

func TestGridRoundTrip(t *testing.T) {
	g := raster.New(10, 6)
	for i := range g.Data {
		g.Data[i] = float32(i) * 1.5
	}
	g.Geo = &raster.Georef{OriginX: 1, OriginY: 2, PixelW: 3, PixelH: 4}
	im := FromGrid(g)
	back := im.Grid()
	if !raster.Equal(g, back) {
		t.Error("FromGrid/Grid round trip mismatch")
	}
	if back.Geo == nil || back.Geo.OriginX != 1 {
		t.Error("georef lost in grid round trip")
	}
}

func TestGridConversionWidensIntegers(t *testing.T) {
	im := &Image{Width: 2, Height: 1, Type: Int16, Pix: make([]byte, 4)}
	neg5 := int16(-5)
	binary.LittleEndian.PutUint16(im.Pix, uint16(neg5))
	binary.LittleEndian.PutUint16(im.Pix[2:], 300)
	g := im.Grid()
	if g.Data[0] != -5 || g.Data[1] != 300 {
		t.Errorf("int16 widening: %v", g.Data)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, wRaw, hRaw uint8) bool {
		w := int(wRaw%40) + 1
		h := int(hRaw%40) + 1
		r := rand.New(rand.NewSource(seed))
		g := raster.New(w, h)
		for i := range g.Data {
			g.Data[i] = float32(r.NormFloat64() * 100)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, FromGrid(g), EncodeOptions{Compression: CompressionDeflate, RowsPerStrip: int(hRaw%5) + 1}); err != nil {
			return false
		}
		out, err := DecodeBytes(buf.Bytes())
		if err != nil {
			return false
		}
		return raster.Equal(g, out.Grid())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDTypeStringAndSize(t *testing.T) {
	cases := []struct {
		d    DType
		s    string
		size int
	}{
		{Uint8, "uint8", 1}, {Uint16, "uint16", 2}, {Uint32, "uint32", 4},
		{Int16, "int16", 2}, {Float32, "float32", 4}, {Float64, "float64", 8},
	}
	for _, c := range cases {
		if c.d.String() != c.s || c.d.Size() != c.size {
			t.Errorf("%v: %q/%d", c.d, c.d.String(), c.d.Size())
		}
	}
}

func BenchmarkEncodeFloat32Deflate(b *testing.B) {
	im := makeFloat32Image(512, 512)
	b.SetBytes(int64(len(im.Pix)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Encode(&buf, im, EncodeOptions{Compression: CompressionDeflate}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeFloat32(b *testing.B) {
	im := makeFloat32Image(512, 512)
	var buf bytes.Buffer
	if err := Encode(&buf, im, EncodeOptions{}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(im.Pix)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBytes(data); err != nil {
			b.Fatal(err)
		}
	}
}
