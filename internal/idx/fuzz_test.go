package idx

import (
	"bytes"
	"testing"

	"nsdfgo/internal/raster"
)

// FuzzMetaUnmarshalText feeds the descriptor parser — the first bytes
// every Open reads from a possibly remote store — arbitrary text. It
// must never panic, and a descriptor it accepts is one the block path
// can size its work from: Validate holds, the block geometry is positive
// and tiles the padded box exactly (no shift overflowed), and the
// descriptor survives MarshalText -> UnmarshalText unchanged.
func FuzzMetaUnmarshalText(f *testing.F) {
	for _, dims := range [][]int{{300, 200}, {16, 8, 4}, {1}} {
		meta, err := NewMeta(dims, []Field{
			{Name: "elevation", Type: Float32, Fill: -9999},
			{Name: "mask", Type: Uint8, Codec: "raw"},
		})
		if err != nil {
			f.Fatal(err)
		}
		meta.Timesteps = 3
		meta.Geo = &raster.Georef{OriginX: -90.31, OriginY: 36.68, PixelW: 0.000277, PixelH: 0.000277}
		text, err := meta.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Add([]byte("idx(1)\nbox 0 0\nbits V0\nbitsperblock 1\ntimesteps 1\nfield f float64 zlib\n"))
	f.Add([]byte("idx(1)\nbox 0 9223372036854775807\nbits V" + string(bytes.Repeat([]byte{'0'}, 62)) + "\nbitsperblock 40\nfield f uint8 raw"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Meta
		if err := m.UnmarshalText(data); err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("UnmarshalText accepted a descriptor Validate rejects: %v", err)
		}
		level, blocks, samples := m.MaxLevel(), m.NumBlocks(), m.BlockSamples()
		if level < 1 || level > 62 || blocks < 1 || samples < 2 {
			t.Fatalf("MaxLevel %d, NumBlocks %d, BlockSamples %d", level, blocks, samples)
		}
		if uint64(blocks)*uint64(samples) != 1<<level {
			t.Fatalf("%d blocks of %d samples do not tile the 2^%d-sample box", blocks, samples, level)
		}
		text, err := m.MarshalText()
		if err != nil {
			t.Fatalf("marshalling an accepted descriptor: %v", err)
		}
		var back Meta
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("re-parsing a marshalled descriptor: %v\n%s", err, text)
		}
		if again, err := back.MarshalText(); err != nil || !bytes.Equal(again, text) {
			t.Fatalf("descriptor changed across a round trip (%v):\n%s\n--- became ---\n%s", err, text, again)
		}
	})
}
