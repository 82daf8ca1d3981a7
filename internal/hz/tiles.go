package hz

import (
	"cmp"
	"fmt"
	"slices"
)

// This file plans a box × level query block first. On every exact level
// the payload counter of sub-lattice point (i, j, k) is separable,
// X(i) | Y(j) | Z(k) over disjoint bit masks (see levelQuery), so one
// table per axis — nx + ny + nz entries, built by masked increments —
// addresses all nx*ny*nz samples of the level. The low block bits of an
// entry are the sample's offset inside its storage block and the high
// bits select the block; every table ascends, so the entries of an axis
// sharing a high part are contiguous, and each combination of one such
// group per axis is the aligned box one block holds of the sub-lattice.
// The plan is the list of those boxes: its size is the number of touched
// blocks plus the table entries per level, where the run decomposition
// (HZRuns) needs a record per 1.5 samples on the alternating masks Guess
// produces. A 2D mask is no special case: its third axis has one point
// per level, whose table entry is 0.

// TileQuery describes a box × level lattice query for PlanTiles. Its
// output is dense, axis 0 fastest: lattice point (i, j, k) is assigned
// output index (k*N[1]+j)*N[0] + i.
type TileQuery struct {
	// P0 is the first lattice point; each coordinate must be a multiple
	// of the corresponding LevelStrides(Level) stride.
	P0 [Axes]int
	// N holds the lattice point counts along each axis; axes the mask
	// does not have hold 1.
	N [Axes]int
	// Level is the resolution level, 0..Bits().
	Level int
	// BlockBits is the storage block size in bits (samples per block =
	// 2^BlockBits); zero puts the whole address space in block 0.
	BlockBits int
}

// TileLevel holds the separable tables of one exact level of a TilePlan.
type TileLevel struct {
	// Off holds, per axis and sub-lattice index along it, the axis's share
	// of the in-block sample offset: point (i, j, k) of a tile is sample
	// Off[0][i] | Off[1][j] | Off[2][k] of the tile's block.
	Off [Axes][]uint32
	// Out0 is the output index of point (0, 0, 0); point (i, j, k) lands
	// at Out0 + i*OutStep[0] + j*OutStep[1] + k*OutStep[2].
	Out0    int
	OutStep [Axes]int
}

// Tile is the box [I0,I1) × [J0,J1) × [K0,K1) of one exact level's
// sub-lattice that is stored in one block.
type Tile struct {
	// Block is the storage block, HZ address >> block bits.
	Block int
	// Level indexes TilePlan.Levels.
	Level int
	// I0, I1, J0, J1 and K0, K1 bound the tile along axes 0, 1 and 2,
	// half-open.
	I0, I1, J0, J1, K0, K1 int
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

// PlanTiles plans the lattice query q block first. In-block offsets are
// 32-bit, so blocks of more than 2^32 samples are a caller error, as are
// the malformed queries lattice panics on.
func (b Bitmask) PlanTiles(q TileQuery) TilePlan {
	lt := b.lattice("PlanTiles", Axes, q.P0, q.N, q.Level, q.N[0])
	blockBits := q.BlockBits
	if blockBits <= 0 {
		blockBits = b.m
	}
	if blockBits > 32 {
		panic(fmt.Sprintf("hz: PlanTiles block of 2^%d samples exceeds 32-bit in-block offsets", blockBits))
	}
	if min(q.N[0], q.N[1], q.N[2]) <= 0 {
		return TilePlan{}
	}

	// First pass: intersect every exact level with the box, so all tables
	// share one allocation.
	lqs := make([]levelQuery, q.Level+1)
	entries := 0
	for l := range lqs {
		lqs[l] = b.levelQuery(&lt, l)
		entries += lqs[l].n[0] + lqs[l].n[1] + lqs[l].n[2]
	}
	plan := TilePlan{
		Levels: make([]TileLevel, q.Level+1),
		Tiles:  make([]Tile, 0, q.Level+1), // most levels own one tile, in block 0
	}
	tables := make([]uint32, entries)
	// Group lists are reused across levels and start on the stack: 16
	// groups an axis is 256 touched blocks a level of a 2D query.
	var buf [Axes][16]axisGroup
	var groups [Axes][]axisGroup
	for a := range groups {
		groups[a] = buf[a][:0]
	}
	for l, lq := range lqs {
		if lq.n[0] == 0 {
			continue
		}
		lv := TileLevel{Out0: lq.out0, OutStep: lq.outStep}
		// The level base is a single bit above every payload bit; folded
		// into the first table it makes X(i) | Y(j) | Z(k) the whole HZ
		// address.
		base := lq.base
		for a, n := range lq.n {
			lv.Off[a], tables = tables[:n:n], tables[n:]
			groups[a] = axisTable(lv.Off[a], groups[a][:0], base|lq.c0&lq.mask[a], lq.mask[a], blockBits)
			base = 0
		}
		plan.Levels[l] = lv

		first := len(plan.Tiles)
		for _, gz := range groups[2] {
			for _, gy := range groups[1] {
				for _, gx := range groups[0] {
					plan.Tiles = append(plan.Tiles, Tile{
						Block: int(gx.block | gy.block | gz.block), Level: l,
						I0: gx.start, I1: gx.end, J0: gy.start, J1: gy.end, K0: gz.start, K1: gz.end,
					})
				}
			}
		}
		// Levels ascend and own disjoint, ascending block ranges above
		// block 0, so sorting each level's tiles sorts the plan.
		slices.SortFunc(plan.Tiles[first:], func(a, b Tile) int { return cmp.Compare(a.Block, b.Block) })
	}
	return plan
}

// axisGroup is a maximal range [start, end) of one axis table's entries
// that share their block bits.
type axisGroup struct {
	start, end int
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
		groups[len(groups)-1].end = i + 1
	}
	return groups
}
