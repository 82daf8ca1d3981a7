package tiff

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzDecodeBytes feeds the TIFF parser arbitrary files, seeded with
// encodings of small images in every layout the strip path has. The
// parser must never panic; whatever dimensions a header claims, it must
// not allocate beyond what the strips present could inflate to (here: a
// successful decode costs the pixels, the IFD map and 64 KiB of pooled
// inflate state at most); and an image it accepts must survive
// Encode -> DecodeBytes bit-exactly.
func FuzzDecodeBytes(f *testing.F) {
	for _, dt := range []DType{Uint8, Uint16, Int16, Uint32, Float32, Float64} {
		im := &Image{Width: 13, Height: 9, Type: dt, Pix: make([]byte, 13*9*dt.Size())}
		for i := range im.Pix {
			im.Pix[i] = byte(i * 5)
		}
		for _, opts := range []EncodeOptions{
			{Compression: CompressionNone},
			{Compression: CompressionDeflate},
			{Compression: CompressionDeflate, RowsPerStrip: 2},
		} {
			var buf bytes.Buffer
			if err := Encode(&buf, im, opts); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte("MM\x00\x2a\x00\x00\x00\x08\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		im, err := DecodeBytes(data)
		runtime.ReadMemStats(&after)
		if err != nil {
			return
		}
		if want := im.Width * im.Height * im.Type.Size(); len(im.Pix) != want {
			t.Fatalf("decoded %dx%d %v image holds %d bytes, want %d", im.Width, im.Height, im.Type, len(im.Pix), want)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(im.Pix)+8*len(data)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes into %d bytes of pixels allocated %d bytes, want <= %d", len(data), len(im.Pix), got, limit)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, im, EncodeOptions{Compression: CompressionDeflate}); err != nil {
			t.Fatalf("re-encoding an accepted image: %v", err)
		}
		back, err := DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("decoding a re-encoded image: %v", err)
		}
		if back.Width != im.Width || back.Height != im.Height || back.Type != im.Type || !bytes.Equal(back.Pix, im.Pix) {
			t.Fatal("image did not survive Encode -> DecodeBytes bit-exactly")
		}
	})
}
