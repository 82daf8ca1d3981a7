package idx

import (
	"context"
	"fmt"
	"time"

	"nsdfgo/internal/compress"
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
	f, err := d.checkFieldTime(field, t)
	if err != nil {
		return err
	}
	if len(d.Meta.Dims) != 2 {
		return fmt.Errorf("idx: WriteRegion requires a 2D dataset")
	}
	w, h := d.Meta.Dims[0], d.Meta.Dims[1]
	if x0 < 0 || y0 < 0 || x0+g.W > w || y0+g.H > h {
		return fmt.Errorf("idx: region %dx%d at (%d,%d) outside dataset %dx%d", g.W, g.H, x0, y0, w, h)
	}
	if g.W <= 0 || g.H <= 0 {
		return fmt.Errorf("idx: empty region")
	}
	codec, err := compress.Lookup(f.Codec)
	if err != nil {
		return err
	}
	ctx, span := trace.Start(ctx, "idx.write_region",
		trace.Str("dataset", d.name),
		trace.Str("field", field))
	defer span.End()
	sc := d.newStageClock(span != nil)
	mask := d.Meta.Bits
	rawBlockLen := d.Meta.BlockSamples() * f.Type.Size()

	// Plan: the region as per-block tiles, so each block update is a few
	// indexed row scatters into the block's payload.
	plan, spans := d.planTiles(hz.RunQuery{
		X0: x0, Y0: y0, NX: g.W, NY: g.H, Level: mask.Bits(), OutW: g.W,
	})
	keys := d.blockKeys(field, t)
	blockKey := func(b int) string {
		if keys != nil {
			return keys[b]
		}
		return d.BlockKey(field, t, b)
	}

	// Read-modify-write each touched block, in ascending block order.
	// Checking ctx once per span keeps a cancelled tile writer from
	// walking the rest of its plan.
	for _, sp := range spans {
		if err := ctx.Err(); err != nil {
			return err
		}
		b := sp.block
		key := blockKey(b)
		var raw []byte
		// The RMW read is served from the cache when possible: cached
		// blocks are immutable shared memory, so the modify step works on
		// a private copy instead of mutating what other readers hold.
		if d.cache != nil {
			if blk, ok := d.cachePeek(key); ok {
				raw = make([]byte, blk.Len())
				copy(raw, blk.Bytes())
				blk.Release()
			}
		}
		if raw == nil {
			var getStart time.Time
			if sc != nil {
				getStart = time.Now()
			}
			enc, err := d.be.Get(ctx, key)
			if sc != nil {
				getEnd := time.Now()
				sc.fetchNS.Add(int64(getEnd.Sub(getStart)))
				if sc.traced {
					trace.Record(ctx, "storage.get", getStart, getEnd,
						trace.Str("dataset", d.name),
						trace.Int("block", int64(b)))
				}
			}
			switch {
			case err == nil:
				raw, err = codec.Decode(enc, rawBlockLen)
				if err != nil {
					return fmt.Errorf("idx: decode block %d: %w", b, err)
				}
			case IsNotExist(err):
				// Initialise a fresh block: every slot (written-region samples,
				// not-yet-written samples, and pow2 padding) starts at the
				// field's fill value.
				raw = make([]byte, rawBlockLen)
				f.Type.fillBlock(raw, f.Fill)
			default:
				return fmt.Errorf("idx: read block %d: %w", b, err)
			}
		}
		scatterTiles(f.Type, raw, &plan, plan.Tiles[sp.lo:sp.hi], g.Data)
		encOut, err := codec.Encode(raw)
		if err != nil {
			return fmt.Errorf("idx: encode block %d: %w", b, err)
		}
		var putStart time.Time
		if sc != nil {
			putStart = time.Now()
		}
		if err := d.be.Put(ctx, key, encOut); err != nil {
			return fmt.Errorf("idx: store block %d: %w", b, err)
		}
		if sc != nil {
			putEnd := time.Now()
			sc.storeNS.Add(int64(putEnd.Sub(putStart)))
			if sc.traced {
				trace.Record(ctx, "storage.put", putStart, putEnd,
					trace.Str("dataset", d.name),
					trace.Int("block", int64(b)),
					trace.Int("bytes", int64(len(encOut))))
			}
		}
		if d.cache != nil {
			// Invalidate every tier first (a disk tier may hold the old
			// payload, and a refresh rejected by admission must not leave
			// it there), then refresh. Put adopts raw, which this
			// iteration no longer writes to.
			if r, ok := d.cache.(cacheRemover); ok {
				r.Remove(key)
			}
			d.cache.Put(key, raw).Release()
		}
	}
	return nil
}
