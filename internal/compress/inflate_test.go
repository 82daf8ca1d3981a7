package compress

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// flateInflate is the oracle: compress/flate's streaming reader.
func flateInflate(src []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(src)))
}

// checkAgainstFlate wants the same bytes or an error from both decoders,
// and, where the stream is valid, the exact-size decode to accept its
// length and reject one byte more or less.
func checkAgainstFlate(t *testing.T, name string, src []byte) (valid bool) {
	t.Helper()
	want, wantErr := flateInflate(src)
	f := getInflater()
	defer f.release()
	got, err := f.inflate(nil, src, MaxDeflateRatio*len(src))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: inflate error %v, compress/flate error %v", name, err, wantErr)
	}
	if wantErr != nil {
		if err := f.inflateExact(make([]byte, len(want)), src); err == nil {
			t.Fatalf("%s: exact decode of a stream compress/flate rejects succeeded", name)
		}
		return false
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: inflate differs from compress/flate (%d vs %d bytes)", name, len(got), len(want))
	}
	dst := make([]byte, len(want))
	if err := f.inflateExact(dst, src); err != nil || !bytes.Equal(dst, want) {
		t.Fatalf("%s: exact decode of %d bytes: %v", name, len(want), err)
	}
	for _, size := range []int{len(want) - 1, len(want) + 1} {
		if size >= 0 && f.inflateExact(make([]byte, size), src) == nil {
			t.Fatalf("%s: exact decode of a %d-byte stream into %d bytes succeeded", name, len(want), size)
		}
	}
	return true
}

// bitWriter writes DEFLATE's bit order: fields least significant bit
// first, Huffman codes most significant bit first.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (b *bitWriter) bits(v uint64, n uint) {
	b.acc |= v << b.n
	for b.n += n; b.n >= 8; b.n -= 8 {
		b.out = append(b.out, byte(b.acc))
		b.acc >>= 8
	}
}

func (b *bitWriter) code(codes []uint16, lens []uint8, sym int) {
	n := uint(lens[sym])
	b.bits(uint64(bits.Reverse16(codes[sym])>>(16-n)), n)
}

func (b *bitWriter) bytes() []byte {
	if b.n > 0 {
		return append(b.out, byte(b.acc))
	}
	return b.out
}

// canonical returns the canonical Huffman codes of lens.
func canonical(lens []uint8) []uint16 {
	var count, next [17]uint16
	for _, n := range lens {
		count[n]++
	}
	count[0] = 0
	for n := 1; n <= 16; n++ {
		next[n] = (next[n-1] + count[n-1]) << 1
	}
	codes := make([]uint16, len(lens))
	for s, n := range lens {
		if n != 0 {
			codes[s] = next[n]
			next[n]++
		}
	}
	return codes
}

// dynamicHeader writes a final dynamic block's header for the given
// code lengths, sending every length with a 4-bit code-length code.
func dynamicHeader(w *bitWriter, lit, dist []uint8) {
	w.bits(1, 1)
	w.bits(2, 2)
	w.bits(uint64(len(lit)-257), 5)
	w.bits(uint64(len(dist)-1), 5)
	w.bits(19-4, 4)
	var clens [19]uint8
	for s := 0; s < 16; s++ {
		clens[s] = 4
	}
	for _, s := range codeOrder {
		w.bits(uint64(clens[s]), 3)
	}
	codes := canonical(clens[:])
	for _, n := range append(append([]uint8{}, lit...), dist...) {
		w.code(codes, clens[:], int(n))
	}
}

// dynamicStream is a final dynamic block with the given code lengths and
// symbols: a literal/length symbol, or -1-d for distance symbol d.
func dynamicStream(lit, dist []uint8, syms ...int) []byte {
	var w bitWriter
	dynamicHeader(&w, lit, dist)
	litCodes, distCodes := canonical(lit), canonical(dist)
	for _, s := range syms {
		if s < 0 {
			w.code(distCodes, dist, -1-s)
		} else {
			w.code(litCodes, lit, s)
		}
	}
	return w.bytes()
}

// fixedStream is a final fixed-Huffman block of the given symbols, as
// dynamicStream takes them.
func fixedStream(syms ...int) []byte {
	lit := make([]uint8, 288)
	for s := range lit {
		lit[s] = map[bool]uint8{true: 8, false: 9}[s < 144 || s >= 280]
		if s >= 256 && s < 280 {
			lit[s] = 7
		}
	}
	dist := bytes.Repeat([]byte{5}, 32)
	var w bitWriter
	w.bits(1, 1)
	w.bits(1, 2)
	litCodes, distCodes := canonical(lit), canonical(dist)
	for _, s := range syms {
		if s < 0 {
			w.code(distCodes, dist, -1-s)
		} else {
			w.code(litCodes, lit, s)
		}
	}
	return w.bytes()
}

func deflateAt(t *testing.T, level int, src []byte) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(src)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tutorialBlocks is every block, written with the IDX default codec, of
// a small elevation and slope field like the tutorial's.
func tutorialBlocks(t *testing.T) [][]byte {
	const side, blockSamples = 128, 2048
	elev := make([]float32, side*side)
	slope := make([]float32, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			h := 300 + 250*math.Sin(float64(x)/23)*math.Cos(float64(y)/31) + 4*math.Sin(float64(x*y)/97)
			elev[y*side+x] = float32(h)
			slope[y*side+x] = float32(math.Abs(math.Cos(float64(x)/23)) * 12)
		}
	}
	var blocks [][]byte
	for _, field := range [][]float32{elev, slope} {
		for i := 0; i < len(field); i += blockSamples {
			enc, err := ShuffleZlib{ElemSize: 4}.Encode(float32Bytes(field[i : i+blockSamples]))
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, enc)
		}
	}
	return blocks
}

// TestInflateMatchesFlate pins that the decoder accepts and rejects
// exactly what compress/flate does, and decodes the same bytes: on the
// tutorial's blocks, on every flate level, on hand-built streams at each
// edge of RFC 1951, and on seeded mutations of all of them.
func TestInflateMatchesFlate(t *testing.T) {
	streams := map[string][]byte{"empty input": {}}
	for i, b := range tutorialBlocks(t) {
		streams[fmt.Sprintf("tutorial block %d", i)] = b
	}
	payloads := map[string][]byte{
		"empty":   {},
		"terrain": terrainBlock(8<<10, 0),
		"text":    []byte(strings.Repeat("the national science data fabric democratizes data delivery. ", 40)),
		"runs":    bytes.Repeat([]byte{7}, 3000),
		"random":  make([]byte, 1500),
		"short":   []byte("abcabcabcab"),
	}
	rand.New(rand.NewSource(1)).Read(payloads["random"])
	for pname, p := range payloads {
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression} {
			streams[fmt.Sprintf("%s at level %d", pname, level)] = deflateAt(t, level, p)
		}
	}
	// A stored block longer than 64 KiB is split across blocks.
	streams["stored 70 KiB"] = deflateAt(t, flate.NoCompression, terrainBlock(70<<10, 1))

	lit := func(lens map[int]uint8) []uint8 {
		out := make([]uint8, 258)
		for s, n := range lens {
			out[s] = n
		}
		return out
	}
	oneDist := []uint8{1}
	edges := map[string]struct {
		src   []byte
		valid bool
	}{
		"fixed literals":            {fixedStream('a', 'b', 256), true},
		"fixed overlapping match":   {fixedStream('a', 'b', 258, -2, 285, -1, 256), true},
		"fixed symbol 286":          {fixedStream('a', 286, 256), false},
		"fixed symbol 287":          {fixedStream('a', 287, 256), false},
		"fixed distance 30":         {fixedStream('a', 257, -31, 256), false},
		"fixed distance 31":         {fixedStream('a', 257, -32, 256), false},
		"distance before output":    {fixedStream('a', 257, -2, 256), false},
		"match as first symbol":     {fixedStream(257, -1, 256), false},
		"no end of block":           {fixedStream('a', 'b'), false},
		"empty distance tree":       {dynamicStream(lit(map[int]uint8{'a': 1, 256: 1}), []uint8{0}, 'a', 'a', 256), true},
		"empty tree, distance used": {dynamicStream(lit(map[int]uint8{'a': 1, 256: 2, 257: 2}), []uint8{0}, 'a', 257, 256), false},
		"single 1-bit distance":     {dynamicStream(lit(map[int]uint8{'a': 1, 256: 2, 257: 2}), oneDist, 'a', 257, -1, 256), true},
		"single 1-bit literal code": {dynamicStream(lit(map[int]uint8{256: 1}), oneDist, 256), true},
		"incomplete literal code":   {dynamicStream(lit(map[int]uint8{'a': 2, 256: 2}), oneDist, 'a', 256), false},
		"oversubscribed code":       {dynamicStream(lit(map[int]uint8{'a': 1, 'b': 1, 256: 1}), oneDist, 'a', 256), false},
		"incomplete distance code":  {dynamicStream(lit(map[int]uint8{'a': 1, 256: 1}), []uint8{2, 2}, 'a', 256), false},
		"15-bit codes": {dynamicStream(func() []uint8 {
			l := make([]uint8, 286)
			for s := 0; s < 14; s++ {
				l[s] = uint8(s + 1)
			}
			l[256], l[257] = 15, 15
			return l
		}(), oneDist, 13, 0, 1, 257, -1, 256), true},
		"HLIT 287":                 {dynamicStream(append(lit(map[int]uint8{'a': 1, 256: 1}), make([]uint8, 29)...), oneDist, 'a', 256), false},
		"HDIST 31":                 {dynamicStream(lit(map[int]uint8{'a': 1, 256: 1}), make([]uint8, 31), 'a', 256), false},
		"HLIT 286, HDIST 30":       {dynamicStream(append(lit(map[int]uint8{'a': 1, 256: 1}), make([]uint8, 28)...), make([]uint8, 30), 'a', 256), true},
		"reserved block type":      {[]byte{0x07, 0, 0, 0}, false},
		"stored length mismatch":   {[]byte{0x01, 3, 0, 0xfc, 0xfe, 'a', 'b', 'c'}, false},
		"stored block":             {[]byte{0x01, 3, 0, 0xfc, 0xff, 'a', 'b', 'c'}, true},
		"stored block, trailing":   {[]byte{0x01, 3, 0, 0xfc, 0xff, 'a', 'b', 'c', 9, 9}, true},
		"stored block, truncated":  {[]byte{0x01, 3, 0, 0xfc, 0xff, 'a', 'b'}, false},
		"nonfinal, then nothing":   {[]byte{0x00, 3, 0, 0xfc, 0xff, 'a', 'b', 'c'}, false},
		"fixed literals, trailing": {append(fixedStream('x', 256), 0xff, 0xff, 0xff), true},
	}
	for name, e := range edges {
		if valid := checkAgainstFlate(t, name, e.src); valid != e.valid {
			t.Errorf("%s: valid = %v, want %v", name, valid, e.valid)
		}
		streams[name] = e.src
	}

	rng := rand.New(rand.NewSource(2))
	for name, src := range streams {
		checkAgainstFlate(t, name, src)
		for cut := 0; cut < len(src) && cut < 24; cut++ {
			checkAgainstFlate(t, fmt.Sprintf("%s cut to %d", name, cut), src[:cut])
			checkAgainstFlate(t, fmt.Sprintf("%s less %d", name, cut), src[:len(src)-1-cut])
		}
		if len(src) == 0 {
			continue
		}
		for m := 0; m < 60; m++ {
			mut := bytes.Clone(src)
			switch m % 3 {
			case 0:
				i := rng.Intn(8 * len(mut))
				mut[i/8] ^= 1 << (i % 8)
			case 1:
				mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
			default:
				mut = mut[:rng.Intn(len(mut))]
			}
			checkAgainstFlate(t, fmt.Sprintf("%s mutation %d", name, m), mut)
		}
	}
}

// TestInflateZlibFraming checks the zlib entry against compress/zlib:
// header, Adler-32 trailer, and a stream longer than dst, whose surplus
// is dropped only after the checksum over all of it holds.
func TestInflateZlibFraming(t *testing.T) {
	zlibStream := func(data []byte) []byte {
		var buf bytes.Buffer
		zw := zlib.NewWriter(&buf)
		zw.Write(data)
		zw.Close()
		return buf.Bytes()
	}
	data := terrainBlock(100<<10, 0) // long enough to slide the window
	enc, small := zlibStream(data), zlibStream(terrainBlock(2<<10, 1))
	for _, size := range []int{0, 1, 1000, 40 << 10, len(data) - 1, len(data), len(data) + 5} {
		dst := make([]byte, size)
		n, err := InflateZlib(dst, enc)
		if err != nil || n != len(data) {
			t.Fatalf("dst of %d: n = %d, err = %v; want %d", size, n, err, len(data))
		}
		if k := min(size, len(data)); !bytes.Equal(dst[:k], data[:k]) {
			t.Fatalf("dst of %d: first %d bytes differ", size, k)
		}
	}
	bad := bytes.Clone(enc)
	bad[len(bad)-1] ^= 1
	if _, err := InflateZlib(make([]byte, len(data)), bad); err == nil {
		t.Error("a corrupt Adler-32 trailer was accepted")
	}
	if _, err := InflateZlib(make([]byte, 10), bad); err == nil {
		t.Error("a corrupt Adler-32 trailer was accepted with the surplus dropped")
	}
	rng := rand.New(rand.NewSource(3))
	for m := 0; m < 200; m++ {
		mut := bytes.Clone(small)
		if m%8 == 0 {
			mut = bytes.Clone(enc)
		}
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		want, wantErr := io.ReadAll(func() io.Reader {
			zr, err := zlib.NewReader(bytes.NewReader(mut))
			if err != nil {
				return errReader{err}
			}
			return zr
		}())
		dst := make([]byte, len(want))
		n, err := InflateZlib(dst, mut)
		if (err != nil) != (wantErr != nil) || err == nil && (n != len(want) || !bytes.Equal(dst, want)) {
			t.Fatalf("mutation %d: got n=%d err=%v, compress/zlib %d bytes err=%v", m, n, err, len(want), wantErr)
		}
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
