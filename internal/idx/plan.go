package idx

import "nsdfgo/internal/hz"

// This file binds the block-first tile plan (hz.PlanTiles) to the dataset:
// ReadBox, WriteGrid and WriteRegion all plan with planTiles and move
// samples with gatherTiles / scatterTiles, one storage block at a time.

// blockSpan is one storage block's slice of a tile plan.
type blockSpan struct {
	// block is the block index (HZ address >> BitsPerBlock).
	block int
	// lo, hi bound the block's tiles in TilePlan.Tiles, half-open.
	lo, hi int
}

// planTiles plans the query block first and returns the plan with one
// span per touched block, in ascending block order. Planning does no
// per-sample work: its cost is the touched blocks plus NX + NY table
// entries per level.
func (d *Dataset) planTiles(q hz.RunQuery) (hz.TilePlan, []blockSpan) {
	q.SplitShift = d.Meta.BitsPerBlock
	plan := d.Meta.Bits.PlanTiles(q)
	spans := make([]blockSpan, 0, len(plan.Tiles))
	for i, tl := range plan.Tiles {
		if n := len(spans); n > 0 && spans[n-1].block == tl.Block {
			spans[n-1].hi = i + 1
			continue
		}
		spans = append(spans, blockSpan{block: tl.Block, lo: i, hi: i + 1})
	}
	return plan, spans
}

// tileRows counts the rows of the tiles: the bulk row copies a gather
// or scatter of them performs.
func tileRows(tiles []hz.Tile) int {
	rows := 0
	for _, tl := range tiles {
		rows += tl.J1 - tl.J0
	}
	return rows
}

// tileSamples counts the samples the tiles cover.
func tileSamples(tiles []hz.Tile) int {
	n := 0
	for _, tl := range tiles {
		n += (tl.I1 - tl.I0) * (tl.J1 - tl.J0)
	}
	return n
}

// gatherTiles copies what one block holds of a query — tiles, the
// block's span of plan — from the block's raw payload into the output
// samples dst, one indexed row copy per tile row.
func gatherTiles(dt DType, dst []float32, plan *hz.TilePlan, tiles []hz.Tile, raw []byte) {
	for _, tl := range tiles {
		lv := &plan.Levels[tl.Level]
		xoff := lv.XOff[tl.I0:tl.I1]
		o := lv.Out0 + tl.I0*lv.OutStepX + tl.J0*lv.OutStepY
		for _, yoff := range lv.YOff[tl.J0:tl.J1] {
			dt.gatherRow(dst[o:], lv.OutStepX, raw, yoff, xoff)
			o += lv.OutStepY
		}
	}
}

// scatterTiles is the write direction of gatherTiles: the samples of src
// the tiles address are encoded into the block's raw payload.
func scatterTiles(dt DType, raw []byte, plan *hz.TilePlan, tiles []hz.Tile, src []float32) {
	for _, tl := range tiles {
		lv := &plan.Levels[tl.Level]
		xoff := lv.XOff[tl.I0:tl.I1]
		o := lv.Out0 + tl.I0*lv.OutStepX + tl.J0*lv.OutStepY
		for _, yoff := range lv.YOff[tl.J0:tl.J1] {
			dt.scatterRow(raw, yoff, xoff, src[o:], lv.OutStepX)
			o += lv.OutStepY
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
		//lint:allow hotalloc this loop is the precompute: it formats every key once per (field,t)
		keys[b] = d.BlockKey(field, t, b)
	}
	if d.keyCache == nil {
		d.keyCache = make(map[keyCacheID][]string)
	}
	d.keyCache[id] = keys
	return keys
}
