package hz

import "math/bits"

// The inverse mappings and the per-point address below are the test
// oracles the run and tile kernels are checked against; no shipped path
// maps one point at a time.

// Deinterleave decomposes the Z-order address z into point coordinates,
// writing them into p, which must have length >= Dims().
func (b Bitmask) Deinterleave(z uint64, p []int) {
	for a := 0; a < b.ndim; a++ {
		p[a] = 0
	}
	var produced [MaxDims]int
	for k := b.m - 1; k >= 0; k-- {
		a := b.axes[k]
		bit := int(z>>(b.m-1-k)) & 1
		p[a] |= bit << produced[a]
		produced[a]++
	}
}

// ZToHZ converts a Z-order address to its hierarchical-Z address under a
// mask with m total bits.
//
// The sample z = 0 has HZ address 0 (level 0). Any other sample belongs to
// level l = m - trailingZeros(z), and its HZ address is
// 2^(l-1) + (z >> (m-l+1)). Level l occupies the contiguous HZ range
// [2^(l-1), 2^l).
func ZToHZ(z uint64, m int) uint64 {
	if z == 0 {
		return 0
	}
	tz := bits.TrailingZeros64(z)
	l := m - tz
	return uint64(1)<<(l-1) + z>>(m-l+1)
}

// HZToZ converts a hierarchical-Z address back to its Z-order address
// under a mask with m total bits. It is the inverse of ZToHZ.
func HZToZ(h uint64, m int) uint64 {
	if h == 0 {
		return 0
	}
	l := bits.Len64(h) // level: h in [2^(l-1), 2^l)
	q := (h-uint64(1)<<(l-1))<<1 | 1
	return q << (m - l)
}

// PointHZ computes the hierarchical-Z address of point p directly.
func (b Bitmask) PointHZ(p []int) uint64 {
	return ZToHZ(b.Interleave(p), b.m)
}

// HZPoint decomposes hierarchical address h into point coordinates.
func (b Bitmask) HZPoint(h uint64, p []int) {
	b.Deinterleave(HZToZ(h, b.m), p)
}
