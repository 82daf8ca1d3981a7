package idx

import "nsdfgo/internal/hz"

// This file holds the data side of the block-first tile plan
// (hz.PlanTiles): the per-block spans of a plan and the gather/scatter
// kernels that move samples one storage block at a time, for every
// reader and writer of the block path (blockpath.go).

// blockSpan is one storage block's slice of a tile plan.
type blockSpan struct {
	// block is the block index (HZ address >> BitsPerBlock).
	block int
	// lo, hi bound the block's tiles in TilePlan.Tiles, half-open.
	lo, hi int
}

// blockSpans returns one span per block the tiles touch, in ascending
// block order (the order of the tiles).
func blockSpans(tiles []hz.Tile) []blockSpan {
	spans := make([]blockSpan, 0, len(tiles))
	for i, tl := range tiles {
		if n := len(spans); n > 0 && spans[n-1].block == tl.Block {
			spans[n-1].hi = i + 1
			continue
		}
		spans = append(spans, blockSpan{block: tl.Block, lo: i, hi: i + 1})
	}
	return spans
}

// tileRows counts the rows of the tiles: the bulk row copies a gather
// or scatter of them performs.
func tileRows(tiles []hz.Tile) int {
	rows := 0
	for _, tl := range tiles {
		rows += (tl.J1 - tl.J0) * (tl.K1 - tl.K0)
	}
	return rows
}

// tileSamples counts the samples the tiles cover.
func tileSamples(tiles []hz.Tile) int {
	n := 0
	for _, tl := range tiles {
		n += (tl.I1 - tl.I0) * (tl.J1 - tl.J0) * (tl.K1 - tl.K0)
	}
	return n
}

// gatherTiles copies what one block holds of a query — tiles, the
// block's span of plan — from the block's raw payload into the output
// samples dst, one indexed row copy per tile row.
func gatherTiles(dt DType, dst []float32, plan *hz.TilePlan, tiles []hz.Tile, raw []byte) {
	for _, tl := range tiles {
		lv := &plan.Levels[tl.Level]
		xoff := lv.Off[0][tl.I0:tl.I1]
		plane := lv.Out0 + tl.I0*lv.OutStep[0] + tl.J0*lv.OutStep[1] + tl.K0*lv.OutStep[2]
		for _, zoff := range lv.Off[2][tl.K0:tl.K1] {
			o := plane
			for _, yoff := range lv.Off[1][tl.J0:tl.J1] {
				dt.gatherRow(dst[o:], lv.OutStep[0], raw, zoff|yoff, xoff)
				o += lv.OutStep[1]
			}
			plane += lv.OutStep[2]
		}
	}
}

// scatterTiles is the write direction of gatherTiles: the samples of src
// the tiles address are encoded into the block's raw payload.
func scatterTiles(dt DType, raw []byte, plan *hz.TilePlan, tiles []hz.Tile, src []float32) {
	for _, tl := range tiles {
		lv := &plan.Levels[tl.Level]
		xoff := lv.Off[0][tl.I0:tl.I1]
		plane := lv.Out0 + tl.I0*lv.OutStep[0] + tl.J0*lv.OutStep[1] + tl.K0*lv.OutStep[2]
		for _, zoff := range lv.Off[2][tl.K0:tl.K1] {
			o := plane
			for _, yoff := range lv.Off[1][tl.J0:tl.J1] {
				dt.scatterRow(raw, zoff|yoff, xoff, src[o:], lv.OutStep[0])
				o += lv.OutStep[1]
			}
			plane += lv.OutStep[2]
		}
	}
}

// maxKeyCacheBlocks bounds the per-(field,timestep) block-key cache: key
// strings are only precomputed for datasets small enough that the table
// stays a few hundred KB.
const maxKeyCacheBlocks = 4096

type keyCacheID struct {
	field string
	t     int
}

// blockKeys returns the cached object names of every block of one
// field/timestep, building them on first use. Formatting a block key
// costs several allocations (fmt.Sprintf), which used to dominate the
// warm-cache read path; amortising it once per dataset makes repeated
// dashboard reads allocation-free in the plan and assembly phases. For
// datasets above maxKeyCacheBlocks blocks it returns nil and callers
// fall back to formatting on demand.
func (d *Dataset) blockKeys(field string, t int) []string {
	n := d.Meta.NumBlocks()
	if n > maxKeyCacheBlocks {
		return nil
	}
	id := keyCacheID{field: field, t: t}
	d.keyMu.Lock()
	defer d.keyMu.Unlock()
	if keys, ok := d.keyCache[id]; ok {
		return keys
	}
	keys := make([]string, n)
	for b := 0; b < n; b++ {
		keys[b] = d.BlockKey(field, t, b)
	}
	if d.keyCache == nil {
		d.keyCache = make(map[keyCacheID][]string)
	}
	d.keyCache[id] = keys
	return keys
}
