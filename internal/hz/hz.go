// Package hz implements Z-order (Morton) and hierarchical Z-order (HZ)
// address arithmetic as used by the IDX multiresolution data format.
//
// The HZ ordering, introduced by Pascucci and Frank for the ViSUS/OpenVisus
// framework, rearranges the samples of a regular n-dimensional grid so that
// all samples belonging to a coarse resolution level are stored contiguously
// before the samples that refine them. A dataset stored in HZ order can be
// read progressively: reading a prefix of the file yields a complete
// coarse version of the data, and each additional level doubles the number
// of samples along one axis.
//
// The ordering is parameterised by a Bitmask: a string such as "V01010101"
// that lists, from coarsest to finest, which axis each bit of the Z-order
// interleave refers to. Axis digits are '0'..'9' mapping to dimensions
// 0..9. The leading 'V' is a convention inherited from the IDX file format.
package hz

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxDims is the maximum number of dimensions supported by a Bitmask.
const MaxDims = 10

// Bitmask describes the interleaving pattern of an n-dimensional Z-order
// curve. The zero value is not usable; construct one with Parse or Guess.
type Bitmask struct {
	str  string // canonical form, e.g. "V0101"
	axes []int  // axes[k] is the axis of bit k, coarsest first
	m    int    // total number of bits (len(axes))
	ndim int    // number of dimensions
	// perAxisBits[a] is the number of bits the mask assigns to axis a.
	perAxisBits []int
}

// Parse parses a bitmask string of the form "V0101...". The leading 'V' is
// optional. Each remaining character must be a digit naming an axis.
func Parse(s string) (Bitmask, error) {
	body := strings.TrimPrefix(s, "V")
	if body == "" {
		return Bitmask{}, fmt.Errorf("hz: empty bitmask %q", s)
	}
	b := Bitmask{axes: make([]int, 0, len(body))}
	maxAxis := -1
	for i, c := range body {
		if c < '0' || c > '9' {
			return Bitmask{}, fmt.Errorf("hz: bitmask %q: invalid axis character %q at position %d", s, c, i)
		}
		a := int(c - '0')
		if a > maxAxis {
			maxAxis = a
		}
		b.axes = append(b.axes, a)
	}
	b.ndim = maxAxis + 1
	b.m = len(b.axes)
	if b.m > 62 {
		return Bitmask{}, fmt.Errorf("hz: bitmask %q has %d bits; maximum is 62", s, b.m)
	}
	b.perAxisBits = make([]int, b.ndim)
	for _, a := range b.axes {
		b.perAxisBits[a]++
	}
	b.str = "V" + body
	return b, nil
}

// Guess constructs a bitmask for a grid with the given dimensions,
// following the same heuristic as OpenVisus: repeatedly split the axis
// with the largest remaining extent, so that the coarsest bits separate
// the longest axes first. Dimensions are rounded up to powers of two.
func Guess(dims []int) (Bitmask, error) {
	if len(dims) == 0 {
		return Bitmask{}, fmt.Errorf("hz: no dimensions")
	}
	if len(dims) > MaxDims {
		return Bitmask{}, fmt.Errorf("hz: %d dimensions; maximum is %d", len(dims), MaxDims)
	}
	need := make([]int, len(dims))
	total := 0
	for i, d := range dims {
		if d <= 0 {
			return Bitmask{}, fmt.Errorf("hz: dimension %d is %d; must be positive", i, d)
		}
		need[i] = ceilLog2(d)
		total += need[i]
	}
	if total == 0 {
		// Degenerate 1x1x... grid: one bit on axis 0 keeps the math simple.
		need[0] = 1
		total = 1
	}
	if total > 62 {
		return Bitmask{}, fmt.Errorf("hz: grid requires %d bits; maximum is 62", total)
	}
	rem := make([]int, len(dims))
	copy(rem, need)
	var sb strings.Builder
	sb.WriteByte('V')
	for k := 0; k < total; k++ {
		best := 0
		for a := 1; a < len(rem); a++ {
			if rem[a] > rem[best] {
				best = a
			}
		}
		rem[best]--
		sb.WriteByte(byte('0' + best))
	}
	return Parse(sb.String())
}

// String returns the canonical "V..." form of the bitmask.
func (b Bitmask) String() string { return b.str }

// Bits returns the total number of bits in the mask. The finest resolution
// level equals Bits(); a full grid holds 2^Bits() sample slots.
func (b Bitmask) Bits() int { return b.m }

// Dims returns the number of dimensions the mask addresses.
func (b Bitmask) Dims() int { return b.ndim }

// AxisBits returns how many bits the mask assigns to axis a, i.e. the
// log2 of the (power-of-two padded) extent along that axis.
func (b Bitmask) AxisBits(a int) int { return b.perAxisBits[a] }

// Interleave computes the Z-order (Morton) address of the point p.
// The coordinate bits are distributed according to the mask: the last
// character of the mask (finest) consumes the least-significant bit of its
// axis and becomes bit 0 of the result.
func (b Bitmask) Interleave(p []int) uint64 {
	var z uint64
	// consumed[a] counts how many low bits of coordinate a have been used.
	var consumed [MaxDims]int
	// Walk from finest (end of mask) to coarsest, filling z from bit 0 up.
	for k := b.m - 1; k >= 0; k-- {
		a := b.axes[k]
		bit := uint64(p[a]>>consumed[a]) & 1
		consumed[a]++
		z |= bit << (b.m - 1 - k)
	}
	return z
}

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

// LevelStrides returns, for resolution level L (0..Bits()), the sampling
// stride along each axis of the lattice formed by all samples of levels
// 0..L. The lattice always includes the origin.
//
// A sample belongs to the level-L lattice iff its Z address is a multiple
// of 2^(m-L); equivalently, for each axis a, its coordinate is a multiple
// of the returned stride[a].
func (b Bitmask) LevelStrides(L int) []int {
	if L < 0 || L > b.m {
		panic(fmt.Sprintf("hz: level %d out of range [0,%d]", L, b.m))
	}
	strides := make([]int, b.ndim)
	for a := range strides {
		strides[a] = 1
	}
	// The low (m-L) bits of z correspond to mask characters L..m-1
	// (coarsest-first indexing). Those coordinate bits must be zero.
	for k := L; k < b.m; k++ {
		strides[b.axes[k]] <<= 1
	}
	return strides
}

// ceilLog2 returns the smallest k with 2^k >= v, for v >= 1.
func ceilLog2(v int) int {
	if v <= 1 {
		return 0
	}
	return bits.Len(uint(v - 1))
}
