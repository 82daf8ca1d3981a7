package hz

import (
	"fmt"
	"math/bits"
)

// This file holds the masked-increment HZ address arithmetic: the
// per-level geometry of a box × level query (levelQuery, shared with the
// tile planner in tiles.go), its decomposition into maximal runs of
// *consecutive* HZ addresses (HZRuns, the reference the tile plan is
// checked against), and the Z-order row walkers the 3D read path uses.
//
// The key identity: every sample of exactly level l >= 1 has
// z = q << (m-l+1) | 1 << (m-l) and hz = 2^(l-1) + q, where q is the
// high l-1 bits of z ("the payload counter"). Walking the exact-level-l
// sub-lattice along an axis changes only that axis's bits of q — one
// carry-propagating masked increment per step — so q is separable,
// X(i) | Y(j), and consecutive lattice points along the fastest axis
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
// The mask must be 2-dimensional. Panics on malformed queries (origin
// off the level lattice, level out of range) — these are programming
// errors in the caller's planning code, not data-dependent conditions.
func (b Bitmask) HZRuns(dst []Run, q RunQuery) []Run {
	sx, sy := b.queryStrides("HZRuns", q)
	if q.NX <= 0 || q.NY <= 0 {
		return dst
	}
	var blockMask uint64
	if q.SplitShift > 0 {
		blockMask = uint64(1)<<q.SplitShift - 1
	}
	for l := 0; l <= q.Level; l++ {
		lq := b.levelQuery(q, l, sx, sy)
		xlsb := lq.xm & -lq.xm
		ylsb := lq.ym & -lq.ym
		// An x-step increments the lowest payload x-bit; consecutive
		// addresses result while the carried-into bits are also x-bits,
		// i.e. for runs of length 2^trailingOnes(xm) aligned to that
		// chunk size.
		tc := bits.TrailingZeros64(^lq.xm)
		chunk := uint64(1) << uint(tc)
		pc := lq.c0
		for iy := 0; iy < lq.ny; iy++ {
			c := pc
			out := lq.out0 + iy*lq.outStepY
			rem := lq.nx
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
				dst = append(dst, Run{HZ: h, Out: out, N: int32(n), OutStep: int32(lq.outStepX)})
				rem -= n
				out += n * lq.outStepX
				if rem > 0 {
					c = maskedInc(c+uint64(n)-1, lq.xm, xlsb)
				}
			}
			if iy+1 < lq.ny {
				pc = maskedInc(pc, lq.ym, ylsb)
			}
		}
	}
	return dst
}

// queryStrides validates a 2D lattice query on behalf of fn and returns
// LevelStrides(q.Level) without allocating.
func (b Bitmask) queryStrides(fn string, q RunQuery) (sx, sy int) {
	if b.ndim != 2 {
		panic(fmt.Sprintf("hz: %s requires a 2D bitmask, got %d dims", fn, b.ndim))
	}
	if q.Level < 0 || q.Level > b.m {
		panic(fmt.Sprintf("hz: %s level %d out of range [0,%d]", fn, q.Level, b.m))
	}
	sx, sy = 1, 1
	for k := q.Level; k < b.m; k++ {
		if b.axes[k] == 0 {
			sx <<= 1
		} else {
			sy <<= 1
		}
	}
	if q.X0%sx != 0 || q.Y0%sy != 0 {
		panic(fmt.Sprintf("hz: %s origin (%d,%d) not on the level-%d lattice (strides %d,%d)",
			fn, q.X0, q.Y0, q.Level, sx, sy))
	}
	return sx, sy
}

// levelQuery is the part of a lattice query that falls on one exact
// level l: the level-L lattice is the disjoint union of the exact-level-l
// sub-lattices for l = 0..L, and each intersects the query box in a
// regular nx × ny grid of its own. Sub-lattice point (i, j) has payload
// counter X(i) | Y(j), with X counting in the bits of xm from c0&xm and
// Y in the bits of ym from c0&ym; its HZ address is base + that counter
// and its output index out0 + i*outStepX + j*outStepY.
type levelQuery struct {
	nx, ny             int
	out0               int
	outStepX, outStepY int
	// base is 2^(l-1), the first HZ address of the level (0 for level 0).
	base uint64
	// c0 is the payload counter of sub-lattice point (0, 0).
	c0 uint64
	// xm, ym are the payload bits owned by each axis; they are disjoint.
	xm, ym uint64
}

// levelQuery intersects the exact-level-l sub-lattice with q's box.
// sx, sy are the query's own strides (queryStrides). The result is the
// zero levelQuery (nx and ny 0) when no sample of the level falls inside
// the box.
func (b Bitmask) levelQuery(q RunQuery, l, sx, sy int) levelQuery {
	if l == 0 {
		// Level 0 is the single sample at the origin.
		if q.X0 != 0 || q.Y0 != 0 {
			return levelQuery{}
		}
		return levelQuery{nx: 1, ny: 1, outStepX: 1, outStepY: q.OutW}
	}
	// LevelStrides(l), then the exact-level-l sub-lattice: doubled along
	// axis a, offset one LevelStrides(l) step along a (see DeltaStrides).
	dsx, dsy := 1, 1
	for k := l; k < b.m; k++ {
		if b.axes[k] == 0 {
			dsx <<= 1
		} else {
			dsy <<= 1
		}
	}
	offx, offy := 0, 0
	if b.axes[l-1] == 0 {
		offx, dsx = dsx, dsx*2
	} else {
		offy, dsy = dsy, dsy*2
	}
	// First sub-lattice point inside the query box along each axis.
	fx, fy := offx, offy
	if q.X0 > offx {
		fx = offx + (q.X0-offx+dsx-1)/dsx*dsx
	}
	if q.Y0 > offy {
		fy = offy + (q.Y0-offy+dsy-1)/dsy*dsy
	}
	xEnd := q.X0 + q.NX*sx
	yEnd := q.Y0 + q.NY*sy
	if fx >= xEnd || fy >= yEnd {
		return levelQuery{}
	}
	// Output placement: sub-lattice strides are multiples of the query
	// strides, so these divisions are exact.
	lq := levelQuery{
		nx:       (xEnd-1-fx)/dsx + 1,
		ny:       (yEnd-1-fy)/dsy + 1,
		out0:     (fy-q.Y0)/sy*q.OutW + (fx-q.X0)/sx,
		outStepX: dsx / sx,
		outStepY: dsy / sy * q.OutW,
		base:     uint64(1) << uint(l-1),
	}
	// Payload-space masks: mask character k (k in 0..l-2) owns payload
	// bit l-2-k. Characters l-1..m-1 are dropped by the shift (they encode
	// the fixed exact-level offset pattern).
	for k := 0; k+2 <= l; k++ {
		bit := uint64(1) << uint(l-2-k)
		if b.axes[k] == 0 {
			lq.xm |= bit
		} else {
			lq.ym |= bit
		}
	}
	p := [2]int{fx, fy}
	lq.c0 = b.Interleave(p[:]) >> uint(b.m-l+1)
	return lq
}

// axisStepMask returns the Z-address bit positions holding coordinate
// bits of the given axis with weight >= step (a power of two). Masked
// increments over this mask walk the axis in units of step.
func (b Bitmask) axisStepMask(axis, step int) uint64 {
	if step <= 0 || step&(step-1) != 0 {
		panic(fmt.Sprintf("hz: step %d is not a positive power of two", step))
	}
	j := bits.TrailingZeros(uint(step))
	var mask uint64
	var consumed [MaxDims]int
	for k := b.m - 1; k >= 0; k-- {
		a := b.axes[k]
		if a == axis && consumed[a] >= j {
			mask |= uint64(1) << uint(b.m-1-k)
		}
		consumed[a]++
	}
	return mask
}

// InterleaveRow fills out with the Z-order addresses of len(out) lattice
// points starting at p and advancing along the given axis by step (a
// power of two) per point, using one masked increment per point instead
// of a full re-interleave. The walk must stay inside the mask's
// power-of-two grid. p is not modified.
func (b Bitmask) InterleaveRow(out []uint64, p []int, axis, step int) {
	if len(out) == 0 {
		return
	}
	am := b.axisStepMask(axis, step)
	if am == 0 && len(out) > 1 {
		panic(fmt.Sprintf("hz: axis %d has no bits at step %d; row of %d points cannot advance", axis, step, len(out)))
	}
	lsb := am & -am
	z := b.Interleave(p)
	out[0] = z
	for i := 1; i < len(out); i++ {
		z = maskedInc(z, am, lsb)
		out[i] = z
	}
}

// InterleaveRows fills out (length >= nx*ny, row-major) with the Z-order
// addresses of the 2D lattice {(x0+i*sx, y0+j*sy)}: the batch
// counterpart of calling Interleave nx*ny times. sx and sy must be
// powers of two and the lattice must stay inside the mask's grid.
func (b Bitmask) InterleaveRows(out []uint64, x0, y0, sx, sy, nx, ny int) {
	if b.ndim != 2 {
		panic(fmt.Sprintf("hz: InterleaveRows requires a 2D bitmask, got %d dims", b.ndim))
	}
	if nx <= 0 || ny <= 0 {
		return
	}
	if len(out) < nx*ny {
		panic(fmt.Sprintf("hz: InterleaveRows output holds %d addresses, need %d", len(out), nx*ny))
	}
	xm := b.axisStepMask(0, sx)
	ym := b.axisStepMask(1, sy)
	if (xm == 0 && nx > 1) || (ym == 0 && ny > 1) {
		panic("hz: InterleaveRows stride exceeds the mask's grid")
	}
	xlsb := xm & -xm
	ylsb := ym & -ym
	var p [2]int
	p[0], p[1] = x0, y0
	zr := b.Interleave(p[:])
	for j := 0; j < ny; j++ {
		row := out[j*nx : j*nx+nx]
		z := zr
		row[0] = z
		for i := 1; i < nx; i++ {
			z = maskedInc(z, xm, xlsb)
			row[i] = z
		}
		if j+1 < ny {
			zr = maskedInc(zr, ym, ylsb)
		}
	}
}
