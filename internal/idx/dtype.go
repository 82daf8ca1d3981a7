package idx

import (
	"encoding/binary"
	"fmt"
	"math"
)

// DType enumerates the sample types an IDX field can store. The IDX format
// is type-generic; the tutorial's terrain fields are float32, hillshade
// renders naturally as uint8, and soil-moisture products use float64.
type DType int

// Supported field sample types.
const (
	Float32 DType = iota
	Float64
	Uint8
	Uint16
	Int16
	Uint32
)

// Size returns the sample size in bytes.
func (d DType) Size() int {
	switch d {
	case Uint8:
		return 1
	case Uint16, Int16:
		return 2
	case Float32, Uint32:
		return 4
	case Float64:
		return 8
	}
	panic(fmt.Sprintf("idx: invalid DType %d", int(d)))
}

// String returns the type name used in IDX metadata.
func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	case Uint8:
		return "uint8"
	case Uint16:
		return "uint16"
	case Int16:
		return "int16"
	case Uint32:
		return "uint32"
	}
	return fmt.Sprintf("DType(%d)", int(d))
}

// ParseDType converts a metadata type name to a DType.
func ParseDType(s string) (DType, error) {
	for _, d := range []DType{Float32, Float64, Uint8, Uint16, Int16, Uint32} {
		//lint:allow hotalloc cold metadata parse; String only formats on the unknown fallback
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("idx: unknown sample type %q", s)
}

// putSample encodes float32 v as dtype d at dst (little-endian). Values are
// clamped to the integer type's range; NaN stores as zero for integer types.
func (d DType) putSample(dst []byte, v float32) {
	switch d {
	case Float32:
		binary.LittleEndian.PutUint32(dst, math.Float32bits(v))
	case Float64:
		binary.LittleEndian.PutUint64(dst, math.Float64bits(float64(v)))
	case Uint8:
		dst[0] = uint8(clampInt(v, 0, math.MaxUint8))
	case Uint16:
		binary.LittleEndian.PutUint16(dst, uint16(clampInt(v, 0, math.MaxUint16)))
	case Int16:
		binary.LittleEndian.PutUint16(dst, uint16(int16(clampInt(v, math.MinInt16, math.MaxInt16))))
	case Uint32:
		binary.LittleEndian.PutUint32(dst, uint32(clampInt(v, 0, math.MaxUint32)))
	}
}

// gatherRow decodes one tile row of a block payload: the dtype-d sample
// at index yoff|xoff[i] of src — yoff being the row's share of the
// offset on every axis but the first — lands in dst[i*step]. It is the
// read path's only per-sample loop, so the type switch sits outside it
// and addressing is one table load per sample (see hz.TilePlan). It is
// the inverse of putSample wherever the value is representable.
func (d DType) gatherRow(dst []float32, step int, src []byte, yoff uint32, xoff []uint32) {
	o := 0
	switch d {
	case Float32:
		for _, x := range xoff {
			dst[o] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*int(yoff|x):]))
			o += step
		}
	case Float64:
		for _, x := range xoff {
			dst[o] = float32(math.Float64frombits(binary.LittleEndian.Uint64(src[8*int(yoff|x):])))
			o += step
		}
	case Uint8:
		for _, x := range xoff {
			dst[o] = float32(src[yoff|x])
			o += step
		}
	case Uint16:
		for _, x := range xoff {
			dst[o] = float32(binary.LittleEndian.Uint16(src[2*int(yoff|x):]))
			o += step
		}
	case Int16:
		for _, x := range xoff {
			dst[o] = float32(int16(binary.LittleEndian.Uint16(src[2*int(yoff|x):])))
			o += step
		}
	case Uint32:
		for _, x := range xoff {
			dst[o] = float32(binary.LittleEndian.Uint32(src[4*int(yoff|x):]))
			o += step
		}
	}
}

// scatterRow is the write-path mirror of gatherRow: src[i*step] is
// encoded as the dtype-d sample at index yoff|xoff[i] of dst. Semantics
// (clamping, NaN handling, endianness) match putSample exactly, so
// blocks written through either are byte-identical.
func (d DType) scatterRow(dst []byte, yoff uint32, xoff []uint32, src []float32, step int) {
	o := 0
	switch d {
	case Float32:
		for _, x := range xoff {
			binary.LittleEndian.PutUint32(dst[4*int(yoff|x):], math.Float32bits(src[o]))
			o += step
		}
	case Float64:
		for _, x := range xoff {
			binary.LittleEndian.PutUint64(dst[8*int(yoff|x):], math.Float64bits(float64(src[o])))
			o += step
		}
	case Uint8:
		for _, x := range xoff {
			dst[yoff|x] = uint8(clampInt(src[o], 0, math.MaxUint8))
			o += step
		}
	case Uint16:
		for _, x := range xoff {
			binary.LittleEndian.PutUint16(dst[2*int(yoff|x):], uint16(clampInt(src[o], 0, math.MaxUint16)))
			o += step
		}
	case Int16:
		for _, x := range xoff {
			binary.LittleEndian.PutUint16(dst[2*int(yoff|x):], uint16(int16(clampInt(src[o], math.MinInt16, math.MaxInt16))))
			o += step
		}
	case Uint32:
		for _, x := range xoff {
			binary.LittleEndian.PutUint32(dst[4*int(yoff|x):], uint32(clampInt(src[o], 0, math.MaxUint32)))
			o += step
		}
	}
}

// fillBlock sets every dtype-d sample of the raw block payload dst to v.
func (d DType) fillBlock(dst []byte, v float32) {
	d.putSample(dst, v)
	for n := d.Size(); n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
}

func clampInt(v float32, lo, hi int64) int64 {
	f := float64(v)
	if math.IsNaN(f) {
		return 0
	}
	if f < float64(lo) {
		return lo
	}
	if f > float64(hi) {
		return hi
	}
	return int64(math.RoundToEven(f))
}
