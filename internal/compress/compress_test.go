package compress

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// testPayloads returns a variety of byte payloads exercising compressible,
// incompressible, and degenerate inputs.
func testPayloads() map[string][]byte {
	r := rand.New(rand.NewSource(42))
	random := make([]byte, 4096)
	r.Read(random)
	runs := bytes.Repeat([]byte{7}, 10000)
	text := []byte(strings.Repeat("the national science data fabric democratizes data delivery. ", 100))
	ramp := make([]byte, 2048)
	for i := range ramp {
		ramp[i] = byte(i / 8)
	}
	return map[string][]byte{
		"empty":    {},
		"one":      {42},
		"tiny":     []byte("abc"),
		"random":   random,
		"runs":     runs,
		"text":     text,
		"ramp":     ramp,
		"min4":     []byte("abcd"),
		"boundary": bytes.Repeat([]byte("xy"), 8),
	}
}

func TestCodecsRoundTrip(t *testing.T) {
	for _, name := range Names() {
		if strings.HasPrefix(name, "zfp") {
			continue // lossy float codec; covered by the ZFP tests
		}
		codec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for pname, payload := range testPayloads() {
			enc, err := codec.Encode(payload)
			if err != nil {
				t.Fatalf("%s/%s: Encode: %v", name, pname, err)
			}
			dec, err := codec.Decode(enc, len(payload))
			if err != nil {
				t.Fatalf("%s/%s: Decode: %v", name, pname, err)
			}
			if !bytes.Equal(dec, payload) {
				t.Fatalf("%s/%s: round trip mismatch (%d bytes -> %d bytes)", name, pname, len(payload), len(dec))
			}
		}
	}
}

func TestCodecsDecodeWithoutSizeHint(t *testing.T) {
	for _, name := range Names() {
		if strings.HasPrefix(name, "zfp") {
			continue
		}
		codec, _ := Lookup(name)
		payload := []byte(strings.Repeat("progressive multiresolution access ", 50))
		enc, err := codec.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := codec.Decode(enc, -1)
		if err != nil {
			t.Fatalf("%s: Decode without hint: %v", name, err)
		}
		if !bytes.Equal(dec, payload) {
			t.Fatalf("%s: round trip mismatch without hint", name)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("no-such-codec"); err == nil {
		t.Error("Lookup of unknown codec succeeded")
	}
}

func TestNamesContainsBuiltins(t *testing.T) {
	names := Names()
	for _, want := range []string{"raw", "zlib", "lz4"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() = %v missing %q", names, want)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(Raw{})
}

func TestZlibCompressesRepetitiveData(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh"), 1000)
	enc, err := (Zlib{}).Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(payload)/4 {
		t.Errorf("zlib compressed %d -> %d; expected at least 4x on repetitive data", len(payload), len(enc))
	}
}

func TestLZ4CompressesRepetitiveData(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh"), 1000)
	enc, err := (LZ4{}).Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(payload)/4 {
		t.Errorf("lz4 compressed %d -> %d; expected at least 4x on repetitive data", len(payload), len(enc))
	}
}

func TestLZ4OverlappingMatches(t *testing.T) {
	// Runs of a single byte force overlapping match copies.
	payload := bytes.Repeat([]byte{'z'}, 300)
	c := LZ4{}
	enc, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decode(enc, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, payload) {
		t.Fatal("overlapping match round trip failed")
	}
}

func TestLZ4RoundTripProperty(t *testing.T) {
	c := LZ4{}
	f := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		// Mix of random and repeated segments to exercise both paths.
		payload := make([]byte, 0, int(n))
		for len(payload) < int(n) {
			if r.Intn(2) == 0 {
				seg := make([]byte, r.Intn(40)+1)
				r.Read(seg)
				payload = append(payload, seg...)
			} else {
				b := byte(r.Intn(8))
				payload = append(payload, bytes.Repeat([]byte{b}, r.Intn(60)+1)...)
			}
		}
		payload = payload[:n]
		enc, err := c.Encode(payload)
		if err != nil {
			return false
		}
		dec, err := c.Decode(enc, len(payload))
		if err != nil {
			return false
		}
		return bytes.Equal(dec, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLZ4DecodeRejectsCorrupt(t *testing.T) {
	c := LZ4{}
	cases := [][]byte{
		{0xF0},            // extended literal length, no run bytes
		{0x40, 'a'},       // claims 4 literals, provides 1
		{0x10, 'a', 0, 0}, // zero offset
		{0x10, 'a', 9, 0}, // offset beyond window
		{0x1F, 'a', 1, 0}, // extended match length, truncated
	}
	for i, src := range cases {
		if _, err := c.Decode(src, -1); err == nil {
			t.Errorf("case %d: corrupt input decoded without error", i)
		}
	}
}

func TestZFPLosslessRoundTrip(t *testing.T) {
	z := ZFPLike{Tolerance: 0}
	values := []float32{0, 1.5, -2.25, float32(math.Pi), 1e-20, 1e20, float32(math.NaN()), float32(math.Inf(1))}
	enc, err := z.EncodeFloat32(values)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := z.DecodeFloat32(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(values) {
		t.Fatalf("decoded %d values, want %d", len(dec), len(values))
	}
	for i := range values {
		if math.Float32bits(dec[i]) != math.Float32bits(values[i]) {
			t.Errorf("element %d: %v != %v", i, dec[i], values[i])
		}
	}
}

func TestZFPLossyBoundsError(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	values := make([]float32, 10000)
	// Smooth field: random walk, like elevation along a transect.
	v := float32(500)
	for i := range values {
		v += float32(r.NormFloat64())
		values[i] = v
	}
	for _, tol := range []float64{0.5, 0.01, 1e-4} {
		z := ZFPLike{Tolerance: tol}
		enc, err := z.EncodeFloat32(values)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := z.DecodeFloat32(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got := MaxAbsError(values, dec); got > tol {
			t.Errorf("tolerance %g: max error %g exceeds bound", tol, got)
		}
	}
}

func TestZFPLossyCompressesSmoothData(t *testing.T) {
	values := make([]float32, 1<<16)
	for i := range values {
		values[i] = float32(math.Sin(float64(i) / 500.0 * math.Pi))
	}
	z := ZFPLike{Tolerance: 1e-3}
	enc, err := z.EncodeFloat32(values)
	if err != nil {
		t.Fatal(err)
	}
	rawBytes := 4 * len(values)
	if len(enc) > rawBytes/3 {
		t.Errorf("zfp-like compressed %d -> %d; expected at least 3x on smooth data", rawBytes, len(enc))
	}
}

func TestZFPPreservesNonFinite(t *testing.T) {
	values := []float32{1, 2, float32(math.NaN()), 4, float32(math.Inf(-1)), 6}
	z := ZFPLike{Tolerance: 0.1}
	enc, err := z.EncodeFloat32(values)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := z.DecodeFloat32(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(dec[2])) {
		t.Errorf("NaN not preserved: got %v", dec[2])
	}
	if !math.IsInf(float64(dec[4]), -1) {
		t.Errorf("-Inf not preserved: got %v", dec[4])
	}
	if math.Abs(float64(dec[3]-4)) > 0.1 {
		t.Errorf("finite neighbour of exception off by %v", dec[3]-4)
	}
}

func TestZFPNegativeToleranceRejected(t *testing.T) {
	if _, err := (ZFPLike{Tolerance: -1}).EncodeFloat32([]float32{1}); err == nil {
		t.Error("negative tolerance accepted")
	}
}

func TestZFPDecodeRejectsCorrupt(t *testing.T) {
	z := ZFPLike{Tolerance: 0.1}
	enc, err := z.EncodeFloat32([]float32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"short":     enc[:10],
		"bad magic": append([]byte("XXXX"), enc[4:]...),
		"bad ver":   append(append([]byte{}, enc[:4]...), append([]byte{99}, enc[5:]...)...),
	}
	for name, src := range cases {
		if _, err := z.DecodeFloat32(src); err == nil {
			t.Errorf("%s: corrupt input decoded without error", name)
		}
	}
}

func TestZFPEmptyInput(t *testing.T) {
	z := ZFPLike{Tolerance: 0.5}
	enc, err := z.EncodeFloat32(nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := z.DecodeFloat32(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Errorf("decoded %d values from empty input", len(dec))
	}
}

func TestMaxAbsError(t *testing.T) {
	if e := MaxAbsError([]float32{1, 2}, []float32{1, 2.5}); e != 0.5 {
		t.Errorf("MaxAbsError = %v, want 0.5", e)
	}
	if e := MaxAbsError([]float32{1}, []float32{1, 2}); !math.IsInf(e, 1) {
		t.Errorf("length mismatch should yield +Inf, got %v", e)
	}
	nan := float32(math.NaN())
	if e := MaxAbsError([]float32{nan}, []float32{nan}); e != 0 {
		t.Errorf("matching NaNs should contribute 0, got %v", e)
	}
}

func BenchmarkZlibEncode(b *testing.B) {
	payload := smoothFieldBytes(1 << 16)
	c := Zlib{}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLZ4Encode(b *testing.B) {
	payload := smoothFieldBytes(1 << 16)
	c := LZ4{}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLZ4Decode(b *testing.B) {
	payload := smoothFieldBytes(1 << 16)
	c := LZ4{}
	enc, err := c.Encode(payload)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(enc, len(payload)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZFPEncode(b *testing.B) {
	values := make([]float32, 1<<14)
	for i := range values {
		values[i] = float32(math.Sin(float64(i) / 100))
	}
	z := ZFPLike{Tolerance: 1e-3}
	b.SetBytes(int64(4 * len(values)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := z.EncodeFloat32(values); err != nil {
			b.Fatal(err)
		}
	}
}

// smoothFieldBytes builds a byte payload resembling serialized terrain data.
func smoothFieldBytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(128 + 100*math.Sin(float64(i)/300))
	}
	return out
}
