package idx

import (
	"context"
	"fmt"

	"nsdfgo/internal/hz"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/telemetry/trace"
)

// WriteRegion updates the rectangular region anchored at (x0,y0) with the
// samples of g, leaving the rest of the field untouched. Only the blocks
// intersecting the region are read, modified, and rewritten, which makes
// out-of-core ingestion possible: a tile producer (GEOtiled) can stream
// tiles of a 100TB-scale mosaic into IDX without ever materialising the
// whole grid. Blocks not yet present are initialised with the field's
// fill value.
//
// Concurrent WriteRegion calls on the same dataset are safe only when
// their regions touch disjoint block sets (block read-modify-write is not
// transactional); tile writers should partition work accordingly or
// serialise.
func (d *Dataset) WriteRegion(ctx context.Context, field string, t int, x0, y0 int, g *raster.Grid) error {
	if err := d.wantDims("WriteRegion", 2); err != nil {
		return err
	}
	w, h := d.Meta.Dims[0], d.Meta.Dims[1]
	if x0 < 0 || y0 < 0 || x0+g.W > w || y0+g.H > h {
		return fmt.Errorf("idx: region %dx%d at (%d,%d) outside dataset %dx%d", g.W, g.H, x0, y0, w, h)
	}
	if g.W <= 0 || g.H <= 0 {
		return fmt.Errorf("idx: empty region")
	}
	p, err := d.newBlockPath(field, t)
	if err != nil {
		return err
	}
	ctx, span := trace.Start(ctx, "idx.write_region",
		trace.Str("dataset", d.name),
		trace.Str("field", field))
	defer span.End()
	p.sc = d.newStageClock(span != nil)

	// Plan: the region as per-block tiles, so each block update is a few
	// indexed row scatters into the block's payload.
	plan, spans := p.plan(ctx, hz.TileQuery{
		P0: [hz.Axes]int{x0, y0}, N: [hz.Axes]int{g.W, g.H, 1}, Level: d.Meta.MaxLevel(),
	})

	// Read-modify-write each touched block, in ascending block order.
	// Checking ctx once per span keeps a cancelled tile writer from
	// walking the rest of its plan.
	for _, sp := range spans {
		if err := ctx.Err(); err != nil {
			return err
		}
		raw, err := p.loadBlock(ctx, sp.block)
		if err != nil {
			return err
		}
		scatterTiles(p.f.Type, raw, &plan, plan.Tiles[sp.lo:sp.hi], g.Data)
		enc, err := p.codec.Encode(raw)
		if err != nil {
			return fmt.Errorf("idx: encode block %d: %w", sp.block, err)
		}
		if err := p.storeBlock(ctx, sp.block, enc); err != nil {
			return err
		}
		if d.cache != nil {
			// storeBlock has purged every tier (a disk tier may hold the old
			// payload, and a refresh rejected by admission must not leave
			// it there); refresh the entry. Put adopts raw, which this
			// iteration no longer writes to.
			d.cache.Put(p.key(sp.block), raw)
		}
	}
	return nil
}

// loadBlock returns a private, mutable copy of block b's payload for a
// read-modify-write: from the cache when possible (cached blocks are
// immutable shared memory other readers hold), else from the backend. A
// block not stored yet starts with every slot — written-region samples,
// not-yet-written samples and pow2 padding — at the field's fill value.
func (p *blockPath) loadBlock(ctx context.Context, b int) ([]byte, error) {
	if p.d.cache != nil {
		if blk, ok := p.d.cache.Peek(p.key(b)); ok {
			return append([]byte(nil), blk.Bytes()...), nil
		}
	}
	raw, _, err := p.fetchDecode(ctx, b)
	if IsNotExist(err) {
		raw = make([]byte, p.rawLen)
		p.f.Type.fillBlock(raw, p.f.Fill)
		return raw, nil
	}
	return raw, err
}
