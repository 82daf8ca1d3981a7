package netcdf

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"nsdfgo/internal/raster"
)

// hugeAttrCount is the 28-byte file nine seconds of fuzzing found: a
// header with no dimensions whose global attribute list claims
// 0x30000000 entries. The decoder sized a slice from that count and
// died with "fatal error: runtime: out of memory" (24 GiB).
var hugeAttrCount = []byte("CDF\x010000\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\f0\x00\x00\x00")

// allocatedBy returns the bytes fn allocates, by the runtime's count.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeBoundsHeaderCounts: a count the rest of the file cannot hold
// is an error, found at once and without the allocation it asked for.
func TestDecodeBoundsHeaderCounts(t *testing.T) {
	var err error
	fastest := time.Hour
	for i := 0; i < 5; i++ { // the best of five: one slow run is the host's
		start := time.Now()
		got := allocatedBy(func() { _, err = DecodeBytes(hugeAttrCount) })
		fastest = min(fastest, time.Since(start))
		if err == nil {
			t.Fatal("a 28-byte file claiming 0x30000000 attributes was accepted")
		}
		if got > 64<<10 {
			t.Fatalf("rejecting it allocated %d bytes, want at most 64 KiB", got)
		}
	}
	if fastest > time.Millisecond {
		t.Errorf("rejecting it took %v, want under a millisecond", fastest)
	}
}

// FuzzDecodeBytes feeds the NetCDF parser arbitrary files, seeded with
// real encodings and the input above. The parser must never panic;
// whatever counts a header claims, decoding must not allocate more than
// a small multiple of the input (variable payloads alias it; names,
// attribute values and the list slots are what is copied); and a file
// it accepts holds exactly the bytes each variable's shape asks for and
// survives Grid on every variable.
func FuzzDecodeBytes(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleFile().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	g := raster.New(5, 4)
	g.Geo = &raster.Georef{OriginX: -90, OriginY: 40, PixelW: 0.5, PixelH: 0.25}
	file, err := FromGrid("sm", g, "m3 m-3")
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := file.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(hugeAttrCount)

	f.Fuzz(func(t *testing.T, data []byte) {
		var file *File
		var err error
		got := allocatedBy(func() { file, err = DecodeBytes(data) })
		if limit := uint64(8*len(data) + 64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, want <= %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		for i := range file.Vars {
			v := &file.Vars[i]
			n, err := file.VarLen(v)
			if err != nil {
				t.Fatalf("accepted variable %q: %v", v.Name, err)
			}
			if len(v.Data) != n*v.Type.Size() {
				t.Fatalf("variable %q holds %d bytes, want %d x %d", v.Name, len(v.Data), n, v.Type.Size())
			}
			_, _ = file.Grid(v.Name) // must not panic; most shapes are not grids
		}
	})
}
