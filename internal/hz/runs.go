package hz

import (
	"fmt"
	"math/bits"
)

// This file holds the masked-increment HZ address arithmetic: the
// per-level, per-axis geometry of a box × level query (levelQuery, shared
// with the tile planner in tiles.go) and its 2D decomposition into
// maximal runs of *consecutive* HZ addresses (HZRuns, the reference the
// tile plan is checked against).
//
// The key identity: every sample of exactly level l >= 1 has
// z = q << (m-l+1) | 1 << (m-l) and hz = 2^(l-1) + q, where q is the
// high l-1 bits of z ("the payload counter"). Walking the exact-level-l
// sub-lattice along an axis changes only that axis's bits of q — one
// carry-propagating masked increment per step — so q is separable,
// X(i) | Y(j) | Z(k), and consecutive lattice points along the fastest axis
// yield q, q+1, q+2... for as long as the axis's payload bits are
// contiguous from bit 0.

// Run is one maximal run of consecutive HZ addresses produced by HZRuns.
// The run covers samples HZ, HZ+1, ..., HZ+N-1, which land at output
// indices Out, Out+OutStep, ..., Out+(N-1)*OutStep.
type Run struct {
	// HZ is the hierarchical address of the run's first sample.
	HZ uint64
	// Out is the output index of the run's first sample.
	Out int
	// N is the number of samples in the run.
	N int32
	// OutStep is the output index distance between consecutive samples.
	OutStep int32
}

// RunQuery describes a 2D box × level lattice query for HZRuns.
type RunQuery struct {
	// X0, Y0 is the first lattice point; each must be a multiple of the
	// corresponding LevelStrides(Level) stride.
	X0, Y0 int
	// NX, NY are the lattice point counts along each axis.
	NX, NY int
	// Level is the resolution level, 0..Bits().
	Level int
	// OutW is the output row width: lattice point (ix, iy) is assigned
	// output index iy*OutW + ix.
	OutW int
	// SplitShift, when positive, forbids runs from crossing multiples of
	// 2^SplitShift in HZ space, so every run stays inside one storage
	// block of 2^SplitShift samples.
	SplitShift int
}

// maxRunLen bounds a single run so N always fits an int32.
const maxRunLen = 1 << 30

// maskedInc returns the successor of v when counting only in the bit
// positions selected by mask: the masked bits are incremented with carry
// propagation while the unmasked bits are left untouched. lsb must be
// mask & -mask. Classic Morton-walk arithmetic.
func maskedInc(v, mask, lsb uint64) uint64 {
	return (((v | ^mask) + lsb) & mask) | (v &^ mask)
}

// HZRuns decomposes the lattice query q into runs of consecutive HZ
// addresses, appending them to dst (which may be nil) and returning the
// extended slice. Every lattice sample is covered by exactly one run;
// runs are emitted grouped by exact level, not globally sorted.
//
// HZRuns is the reference decomposition: the read and write paths plan
// with PlanTiles, which is checked against it (FuzzTilePlan). It costs one
// Run per 1.5 samples on the alternating masks Guess produces, which is
// why nothing on a hot path materialises it.
//
// The mask must have at most two dimensions; malformed queries (origin
// off the level lattice, level out of range) panic, see lattice.
func (b Bitmask) HZRuns(dst []Run, q RunQuery) []Run {
	lt := b.lattice("HZRuns", 2, [Axes]int{q.X0, q.Y0}, [Axes]int{q.NX, q.NY, 1}, q.Level, q.OutW)
	if q.NX <= 0 || q.NY <= 0 {
		return dst
	}
	var blockMask uint64
	if q.SplitShift > 0 {
		blockMask = uint64(1)<<q.SplitShift - 1
	}
	for l := 0; l <= q.Level; l++ {
		lq := b.levelQuery(&lt, l)
		xm, ym := lq.mask[0], lq.mask[1]
		xlsb := xm & -xm
		ylsb := ym & -ym
		// An x-step increments the lowest payload x-bit; consecutive
		// addresses result while the carried-into bits are also x-bits,
		// i.e. for runs of length 2^trailingOnes(xm) aligned to that
		// chunk size.
		tc := bits.TrailingZeros64(^xm)
		chunk := uint64(1) << uint(tc)
		pc := lq.c0
		for iy := 0; iy < lq.n[1]; iy++ {
			c := pc
			out := lq.out0 + iy*lq.outStep[1]
			rem := lq.n[0]
			for rem > 0 {
				n := 1
				if tc > 0 {
					n = int(chunk - (c & (chunk - 1)))
				}
				if n > rem {
					n = rem
				}
				if n > maxRunLen {
					n = maxRunLen
				}
				h := lq.base + c
				if blockMask != 0 {
					if room := int(blockMask + 1 - (h & blockMask)); n > room {
						n = room
					}
				}
				dst = append(dst, Run{HZ: h, Out: out, N: int32(n), OutStep: int32(lq.outStep[0])})
				rem -= n
				out += n * lq.outStep[0]
				if rem > 0 {
					c = maskedInc(c+uint64(n)-1, xm, xlsb)
				}
			}
			if iy+1 < lq.n[1] {
				pc = maskedInc(pc, ym, ylsb)
			}
		}
	}
	return dst
}

// Axes is the number of axes a lattice query, and so a tile plan, spans.
// A mask of fewer dimensions leaves the trailing axes one point long.
const Axes = 3

// lattice is a validated box × level query in per-axis form: n[a] points
// from p0[a] every stride[a] along axis a, point (i, j, k) assigned
// output index i*outStep[0] + j*outStep[1] + k*outStep[2].
type lattice struct {
	p0, n, stride, outStep [Axes]int
}

// lattice validates a lattice query on behalf of fn, which handles masks
// of up to maxDims dimensions, and lays its output out densely in rows
// of outW, axis 0 fastest. Malformed queries panic: they are programming
// errors in the caller's planning code, not data-dependent conditions.
func (b Bitmask) lattice(fn string, maxDims int, p0, n [Axes]int, level, outW int) lattice {
	if b.ndim > maxDims {
		panic(fmt.Sprintf("hz: %s handles at most %dD bitmasks, got %d dims", fn, maxDims, b.ndim))
	}
	if level < 0 || level > b.m {
		panic(fmt.Sprintf("hz: %s level %d out of range [0,%d]", fn, level, b.m))
	}
	lt := lattice{p0: p0, n: n, stride: [Axes]int{1, 1, 1}, outStep: [Axes]int{1, outW, outW * n[1]}}
	for k := level; k < b.m; k++ {
		lt.stride[b.axes[k]] <<= 1
	}
	ok := true
	for a, s := range lt.stride {
		ok = ok && p0[a]%s == 0 && (a < b.ndim || (p0[a] == 0 && n[a] <= 1))
	}
	if !ok {
		panic(fmt.Sprintf("hz: %s origin %v × %v not on the level-%d lattice of %s (strides %v)",
			fn, p0, n, level, b, lt.stride))
	}
	return lt
}

// levelQuery is the part of a lattice query that falls on one exact
// level l: the level-L lattice is the disjoint union of the exact-level-l
// sub-lattices for l = 0..L, and each intersects the query box in a
// regular grid of its own, n[a] points along axis a. The payload counter
// of sub-lattice point (i, j, k) is separable, X(i) | Y(j) | Z(k), each
// axis counting in the bits of its mask from c0&mask[a]; the point's HZ
// address is base + that counter and its output index
// out0 + i*outStep[0] + j*outStep[1] + k*outStep[2].
type levelQuery struct {
	n       [Axes]int
	out0    int
	outStep [Axes]int
	// base is 2^(l-1), the first HZ address of the level (0 for level 0).
	base uint64
	// c0 is the payload counter of sub-lattice point (0, 0, 0).
	c0 uint64
	// mask holds the payload bits owned by each axis; they are disjoint.
	mask [Axes]uint64
}

// levelQuery intersects the exact-level-l sub-lattice with the query's
// box. The result is the zero levelQuery (every n 0) when no sample of
// the level falls inside the box.
func (b Bitmask) levelQuery(lt *lattice, l int) levelQuery {
	if l == 0 {
		// Level 0 is the single sample at the origin.
		if lt.p0 != [Axes]int{} {
			return levelQuery{}
		}
		return levelQuery{n: [Axes]int{1, 1, 1}, outStep: lt.outStep}
	}
	// LevelStrides(l), then the exact-level-l sub-lattice: doubled along
	// the axis of mask character l-1 and offset one LevelStrides(l) step
	// along it (that coordinate bit is 1 on the level and 0 below it).
	ds := [Axes]int{1, 1, 1}
	for k := l; k < b.m; k++ {
		ds[b.axes[k]] <<= 1
	}
	var first [Axes]int
	a := b.axes[l-1]
	first[a], ds[a] = ds[a], ds[a]*2

	lq := levelQuery{base: uint64(1) << uint(l-1)}
	for a := range ds {
		// First sub-lattice point inside the query box along the axis.
		if lt.p0[a] > first[a] {
			first[a] += (lt.p0[a] - first[a] + ds[a] - 1) / ds[a] * ds[a]
		}
		end := lt.p0[a] + lt.n[a]*lt.stride[a]
		if first[a] >= end {
			return levelQuery{}
		}
		// Output placement: sub-lattice strides are multiples of the query
		// strides, so these divisions are exact.
		lq.n[a] = (end-1-first[a])/ds[a] + 1
		lq.out0 += (first[a] - lt.p0[a]) / lt.stride[a] * lt.outStep[a]
		lq.outStep[a] = ds[a] / lt.stride[a] * lt.outStep[a]
	}
	// Payload-space masks: mask character k (k in 0..l-2) owns payload
	// bit l-2-k. Characters l-1..m-1 are dropped by the shift (they encode
	// the fixed exact-level offset pattern).
	for k := 0; k+2 <= l; k++ {
		lq.mask[b.axes[k]] |= uint64(1) << uint(l-2-k)
	}
	lq.c0 = b.Interleave(first[:]) >> uint(b.m-l+1)
	return lq
}
