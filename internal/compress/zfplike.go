package compress

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// ZFPLike is a lossy floating-point codec with a guaranteed absolute error
// bound, standing in for ZFP's fixed-accuracy mode among the codecs the
// IDX format supports.
//
// Values are uniformly quantized with step = Tolerance (so the
// reconstruction error is at most Tolerance/2), delta-coded to exploit the
// smoothness of scientific fields, zigzag/varint packed, and finally
// DEFLATE-compressed. Non-finite values (NaN, ±Inf) are preserved exactly
// through an exception list.
//
// A Tolerance of 0 selects a lossless path (raw bits + DEFLATE).
type ZFPLike struct {
	// Tolerance is the maximum permitted absolute reconstruction error.
	// Must be >= 0; 0 means lossless.
	Tolerance float64
}

const (
	zfpMagic     = "ZFPG"
	zfpVersion   = 1
	zfpLossless  = 1 << 0
	zfpHeaderLen = 4 + 1 + 1 + 8 + 8 // magic, version, flags, tolerance, count

	// maxDeflateRatio is the most DEFLATE can expand: a 258-byte match
	// costs about two bits. An element count that the compressed bytes
	// present could not inflate to is rejected before it sizes a buffer.
	maxDeflateRatio = 1032
)

// Name returns the codec registry identifier for this tolerance, e.g.
// "zfp-0.001". Registered instances (see init) expose the lossy codec to
// IDX field descriptors for float32 fields.
func (z ZFPLike) Name() string {
	if z.Tolerance == 0 {
		return "zfp-lossless"
	}
	return fmt.Sprintf("zfp-%g", z.Tolerance)
}

// Encode implements Codec for float32 little-endian payloads: the byte
// slice is reinterpreted as float32 samples, compressed under the error
// bound, and framed. Payloads whose length is not a multiple of 4 are
// rejected — this codec is only valid for float32 fields.
func (z ZFPLike) Encode(src []byte) ([]byte, error) {
	if len(src)%4 != 0 {
		return nil, fmt.Errorf("compress: zfp: payload of %d bytes is not float32-aligned", len(src))
	}
	if z.Tolerance < 0 {
		return nil, fmt.Errorf("compress: zfp: negative tolerance %g", z.Tolerance)
	}
	var header [zfpHeaderLen]byte
	copy(header[:], zfpMagic)
	header[4] = zfpVersion
	if z.Tolerance == 0 {
		header[5] = zfpLossless
	}
	binary.LittleEndian.PutUint64(header[6:], math.Float64bits(z.Tolerance))
	binary.LittleEndian.PutUint64(header[14:], uint64(len(src)/4))

	d, err := getDeflater(flate.DefaultCompression)
	if err != nil {
		return nil, fmt.Errorf("compress: zfp: %w", err)
	}
	defer d.release()
	payload := src // lossless: the raw bits
	if z.Tolerance != 0 {
		d.scratch = z.quantize(d.scratch[:0], src)
		payload = d.scratch
	}
	out, err := d.deflate(header[:], payload)
	if err != nil {
		return nil, fmt.Errorf("compress: zfp: %w", err)
	}
	return out, nil
}

// quantize appends the lossy payload of the float32 samples in src to
// buf: one zigzag varint per sample holding the change in its quantized
// value, then the exception list — a count, then (index delta varint, raw
// float bits) for each non-finite sample.
func (z ZFPLike) quantize(buf, src []byte) []byte {
	var exceptions []int
	prev := int64(0)
	for i := 0; i < len(src)/4; i++ {
		f := float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
		q := int64(0)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			exceptions = append(exceptions, i)
		} else {
			q = int64(math.RoundToEven(f / z.Tolerance))
		}
		buf = binary.AppendVarint(buf, q-prev)
		prev = q
	}
	buf = binary.AppendUvarint(buf, uint64(len(exceptions)))
	prevIdx := 0
	for _, idx := range exceptions {
		buf = binary.AppendUvarint(buf, uint64(idx-prevIdx))
		buf = append(buf, src[4*idx:4*idx+4]...)
		prevIdx = idx
	}
	return buf
}

// Decode implements Codec. The samples are decoded from the inflating
// stream straight into the returned block.
func (ZFPLike) Decode(src []byte, dstSize int) ([]byte, error) {
	if len(src) < zfpHeaderLen {
		return nil, fmt.Errorf("compress: zfp: payload of %d bytes is shorter than header", len(src))
	}
	if string(src[:4]) != zfpMagic {
		return nil, fmt.Errorf("compress: zfp: bad magic %q", src[:4])
	}
	if src[4] != zfpVersion {
		return nil, fmt.Errorf("compress: zfp: unsupported version %d", src[4])
	}
	flags := src[5]
	tol := math.Float64frombits(binary.LittleEndian.Uint64(src[6:14]))
	count := binary.LittleEndian.Uint64(src[14:22])
	stream := src[zfpHeaderLen:]
	if count > maxDeflateRatio*uint64(len(stream)) {
		return nil, fmt.Errorf("compress: zfp: implausible element count %d for %d compressed bytes", count, len(stream))
	}
	if dstSize >= 0 && 4*count != uint64(dstSize) {
		return nil, fmt.Errorf("compress: zfp payload decodes to %d bytes, expected %d", 4*count, dstSize)
	}
	out := make([]byte, 4*count)
	z := getInflater(stream)
	defer z.release()
	if flags&zfpLossless != 0 {
		if err := z.inflateExact(out); err != nil {
			return nil, fmt.Errorf("compress: zfp: lossless %w", err)
		}
		return out, nil
	}

	r := z.byteReader()
	prev := int64(0)
	for i := 0; i < len(out); i += 4 {
		d, err := binary.ReadVarint(r)
		if err != nil {
			return nil, fmt.Errorf("compress: zfp: quantized stream truncated at element %d: %w", i/4, err)
		}
		prev += d
		binary.LittleEndian.PutUint32(out[i:], math.Float32bits(float32(float64(prev)*tol)))
	}
	nexc, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("compress: zfp: exception count: %w", err)
	}
	idx := 0
	for k := uint64(0); k < nexc; k++ {
		d, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("compress: zfp: exception index: %w", err)
		}
		idx += int(d)
		if idx < 0 || idx >= len(out)/4 {
			return nil, fmt.Errorf("compress: zfp: exception index %d out of range", idx)
		}
		if _, err := io.ReadFull(r, out[4*idx:4*idx+4]); err != nil {
			return nil, fmt.Errorf("compress: zfp: exception bits: %w", err)
		}
	}
	if _, err := r.ReadByte(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("payload continues past the exception list")
		}
		return nil, fmt.Errorf("compress: zfp: %w", err)
	}
	return out, nil
}

func init() {
	// Lossy block codecs for float32 IDX fields, by absolute tolerance.
	Register(ZFPLike{Tolerance: 1e-3})
	Register(ZFPLike{Tolerance: 1e-2})
	Register(ZFPLike{Tolerance: 1e-1})
	Register(ZFPLike{Tolerance: 1})
}
