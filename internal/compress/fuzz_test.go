package compress

import (
	"bytes"
	"testing"
)

// fuzzCodecs are the block decoders that parse bytes read back from a
// store. The lossy ZFP instance is fuzzed for robustness only; the
// others must also round-trip bit-exactly.
var fuzzCodecs = []Codec{
	Zlib{}, ShuffleZlib{ElemSize: 2}, ShuffleZlib{ElemSize: 4}, ShuffleZlib{ElemSize: 8},
	LZ4{}, ZFPLike{}, ZFPLike{Tolerance: 1e-3},
}

const (
	fuzzMaxDstSize = 1 << 20
	// fuzzAllocSlack is what a decode may allocate beyond the block it
	// was told to produce: refilling a pool (a flate reader is ~40 KiB)
	// plus the fuzz worker's own bookkeeping. A stream that inflates far
	// past dstSize must be cut off at dstSize, not buffered.
	fuzzAllocSlack = 64 << 10
)

// FuzzCodecDecode feeds every block decoder arbitrary bytes with an
// arbitrary size hint. A decoder must never panic; with dstSize >= 0 it
// must not allocate more than dstSize plus fuzzAllocSlack whatever the
// bytes claim (the inflate-bomb guard) and may only return a block of
// exactly dstSize bytes; and what a codec encodes it decodes bit-exactly.
func FuzzCodecDecode(f *testing.F) {
	block := terrainBlock(4<<10, 0)
	for i, codec := range fuzzCodecs {
		enc, err := codec.Encode(block)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), enc, len(block))
		f.Add(uint8(i), enc, -1)
		f.Add(uint8(i), enc[:len(enc)/2], len(block))
		f.Add(uint8(i), enc, len(block)/2)
	}
	f.Add(uint8(0), []byte{}, 0)
	// A DEFLATE bomb: 1 MiB of zeros in about a kilobyte.
	bomb, err := Zlib{}.Encode(make([]byte, fuzzMaxDstSize))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), bomb, 16)
	f.Add(uint8(2), bomb, 16)

	f.Fuzz(func(t *testing.T, sel uint8, data []byte, dstSize int) {
		codec := fuzzCodecs[int(sel)%len(fuzzCodecs)]
		if dstSize < 0 {
			dstSize = -1
		} else {
			dstSize %= fuzzMaxDstSize + 1
		}
		decode := func() {
			out, err := codec.Decode(data, dstSize)
			if err == nil && dstSize >= 0 && len(out) != dstSize {
				t.Fatalf("%s: Decode(dstSize=%d) returned %d bytes and no error", codec.Name(), dstSize, len(out))
			}
		}
		decode() // the first call may have to fill a pool or grow its scratch
		if dstSize >= 0 {
			limit := uint64(dstSize) + fuzzAllocSlack
			// A collection between the calls can empty the pools again;
			// only a bound exceeded twice running is the decoder's doing.
			if got := allocated(decode); got > limit {
				if got = allocated(decode); got > limit {
					t.Fatalf("%s: Decode of %d bytes with dstSize %d allocated %d bytes, want <= %d",
						codec.Name(), len(data), dstSize, got, limit)
				}
			}
		}

		payload := data
		if _, isZFP := codec.(ZFPLike); isZFP {
			payload = data[:len(data)/4*4] // float32 payloads only
		}
		enc, err := codec.Encode(payload)
		if err != nil {
			t.Fatalf("%s: Encode of %d bytes: %v", codec.Name(), len(payload), err)
		}
		dec, err := codec.Decode(enc, len(payload))
		if err != nil {
			t.Fatalf("%s: Decode of its own encoding: %v", codec.Name(), err)
		}
		if z, isZFP := codec.(ZFPLike); isZFP && z.Tolerance != 0 {
			return // lossy: bounded error, covered by the ZFP tests
		}
		if !bytes.Equal(dec, payload) {
			t.Fatalf("%s: %d bytes did not round-trip bit-exactly", codec.Name(), len(payload))
		}
	})
}
