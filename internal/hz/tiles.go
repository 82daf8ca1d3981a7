package hz

import (
	"cmp"
	"fmt"
	"slices"
)

// This file plans a box × level query block first. On every exact level
// the payload counter of sub-lattice point (i, j) is separable,
// X(i) | Y(j) over disjoint bit masks (see levelQuery), so one table per
// axis — nx + ny entries, built by masked increments — addresses all
// nx*ny samples of the level. The low block bits of an entry are the
// sample's offset inside its storage block and the high bits select the
// block; both tables ascend, so the columns (rows) sharing a high part
// are contiguous, and each pair of such a column group and row group is
// the aligned rectangle one block holds of the sub-lattice. The plan is
// the list of those rectangles: its size is the number of touched
// blocks plus nx + ny table entries per level, where the run
// decomposition (HZRuns) needs a record per 1.5 samples on the
// alternating masks Guess produces.

// TileLevel holds the separable tables of one exact level of a TilePlan.
type TileLevel struct {
	// XOff and YOff hold, per sub-lattice column and row, the axis's share
	// of the in-block sample offset: point (i, j) of a tile is sample
	// XOff[i] | YOff[j] of the tile's block.
	XOff, YOff []uint32
	// Out0 is the output index of point (0, 0); point (i, j) lands at
	// Out0 + i*OutStepX + j*OutStepY.
	Out0, OutStepX, OutStepY int
}

// Tile is the rectangle [I0,I1) × [J0,J1) of one exact level's
// sub-lattice that is stored in one block.
type Tile struct {
	// Block is the storage block, HZ address >> block bits.
	Block int
	// Level indexes TilePlan.Levels.
	Level int
	// I0, I1 and J0, J1 bound the tile's columns and rows, half-open.
	I0, I1, J0, J1 int
}

// TilePlan is a block-first decomposition of a lattice query.
type TilePlan struct {
	// Levels is indexed by exact level, 0..Level of the query; levels
	// with no sample inside the box have empty tables.
	Levels []TileLevel
	// Tiles is sorted by block, then level, and covers every lattice
	// sample exactly once. Block 0 holds every level up to the block bits
	// and so may own several tiles; any other block owns at most one.
	Tiles []Tile
}

// PlanTiles plans the lattice query q block first. q.SplitShift is the
// storage block size in bits (samples per block = 2^SplitShift); zero
// puts the whole address space in block 0. In-block offsets are 32-bit,
// so blocks of more than 2^32 samples are a caller error, as are the
// malformed queries HZRuns panics on.
func (b Bitmask) PlanTiles(q RunQuery) TilePlan {
	sx, sy := b.queryStrides("PlanTiles", q)
	blockBits := q.SplitShift
	if blockBits <= 0 {
		blockBits = b.m
	}
	if blockBits > 32 {
		panic(fmt.Sprintf("hz: PlanTiles block of 2^%d samples exceeds 32-bit in-block offsets", blockBits))
	}
	if q.NX <= 0 || q.NY <= 0 {
		return TilePlan{}
	}

	// First pass: intersect every exact level with the box, so all tables
	// share one allocation.
	lqs := make([]levelQuery, q.Level+1)
	entries := 0
	for l := range lqs {
		lqs[l] = b.levelQuery(q, l, sx, sy)
		entries += lqs[l].nx + lqs[l].ny
	}
	plan := TilePlan{
		Levels: make([]TileLevel, q.Level+1),
		Tiles:  make([]Tile, 0, q.Level+1), // most levels own one tile, in block 0
	}
	tables := make([]uint32, entries)
	// Group lists are reused across levels and start on the stack: 16
	// groups an axis is 256 touched blocks a level.
	var xgBuf, ygBuf [16]axisGroup
	xg, yg := xgBuf[:0], ygBuf[:0]
	for l, lq := range lqs {
		if lq.nx == 0 {
			continue
		}
		xoff, yoff := tables[:lq.nx:lq.nx], tables[lq.nx:lq.nx+lq.ny:lq.nx+lq.ny]
		tables = tables[lq.nx+lq.ny:]
		// The level base is a single bit above every payload bit; folded
		// into the x table it makes X(i) | Y(j) the whole HZ address.
		xg = axisTable(xoff, xg[:0], lq.base|lq.c0&lq.xm, lq.xm, blockBits)
		yg = axisTable(yoff, yg[:0], lq.c0&lq.ym, lq.ym, blockBits)
		plan.Levels[l] = TileLevel{XOff: xoff, YOff: yoff, Out0: lq.out0, OutStepX: lq.outStepX, OutStepY: lq.outStepY}

		first := len(plan.Tiles)
		for gj, gy := range yg {
			j1 := lq.ny
			if gj+1 < len(yg) {
				j1 = yg[gj+1].start
			}
			for gi, gx := range xg {
				i1 := lq.nx
				if gi+1 < len(xg) {
					i1 = xg[gi+1].start
				}
				plan.Tiles = append(plan.Tiles, Tile{
					Block: int(gx.block | gy.block), Level: l,
					I0: gx.start, I1: i1, J0: gy.start, J1: j1,
				})
			}
		}
		// Levels ascend and own disjoint, ascending block ranges above
		// block 0, so sorting each level's tiles sorts the plan.
		slices.SortFunc(plan.Tiles[first:], func(a, b Tile) int { return cmp.Compare(a.Block, b.Block) })
	}
	return plan
}

// axisGroup is a maximal range of one axis table's entries that share
// their block bits.
type axisGroup struct {
	// start is the group's first entry; it ends where the next begins.
	start int
	// block is the entries' share of the block id.
	block uint64
}

// axisTable fills off with the in-block offsets of len(off) successive
// values counted from v in the bits of mask (other bits of v are carried
// along unchanged), and appends one axisGroup per distinct value of the
// bits above blockBits. Counting in a mask is monotonic, so equal block
// bits are always adjacent.
func axisTable(off []uint32, groups []axisGroup, v, mask uint64, blockBits int) []axisGroup {
	lsb := mask & -mask
	offMask := uint64(1)<<uint(blockBits) - 1
	for i := range off {
		if i > 0 {
			v = maskedInc(v, mask, lsb)
		}
		off[i] = uint32(v & offMask)
		if blk := v >> uint(blockBits); i == 0 || blk != groups[len(groups)-1].block {
			groups = append(groups, axisGroup{start: i, block: blk})
		}
	}
	return groups
}
