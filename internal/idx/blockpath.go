package idx

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/compress"
	"nsdfgo/internal/hz"
	"nsdfgo/internal/telemetry/trace"
)

// This file is the block path: where a lattice sample lives is decided
// by hz.PlanTiles alone, and every block object moves through the one
// reader (readLattice) and the one writer (writeField) below. Two axes
// or three is a matter of the query's third extent, never of a second
// code path.

// blockPath is what the block operations of one call share: the field's
// sample type and codec, the block-name table and the stage clock.
type blockPath struct {
	d     *Dataset
	f     Field
	codec compress.Codec
	field string
	t     int
	// keys is the blockKeys table, nil for datasets too large to keep one.
	keys []string
	// rawLen is the decoded size of one block.
	rawLen int
	// sc is nil unless telemetry or an active trace wants stage times.
	sc *stageClock
}

// newBlockPath validates a field/timestep pair and resolves what its
// block operations need.
func (d *Dataset) newBlockPath(field string, t int) (*blockPath, error) {
	f, err := d.checkFieldTime(field, t)
	if err != nil {
		return nil, err
	}
	codec, err := compress.Lookup(f.Codec)
	if err != nil {
		return nil, err
	}
	return &blockPath{d: d, f: f, codec: codec, field: field, t: t,
		keys: d.blockKeys(field, t), rawLen: d.Meta.BlockSamples() * f.Type.Size()}, nil
}

// key returns the object name of block b: from the precomputed table
// when the dataset is small enough to have one, formatted on demand
// otherwise.
func (p *blockPath) key(b int) string {
	if p.keys != nil {
		return p.keys[b]
	}
	return p.d.BlockKey(p.field, p.t, b)
}

// plan decomposes the lattice query into per-block tiles (nothing here
// is per sample) and books the planning stage.
func (p *blockPath) plan(ctx context.Context, q hz.TileQuery) (hz.TilePlan, []blockSpan) {
	var t0 time.Time
	if p.sc != nil {
		t0 = time.Now()
	}
	q.BlockBits = p.d.Meta.BitsPerBlock
	plan := p.d.Meta.Bits.PlanTiles(q)
	spans := blockSpans(plan.Tiles)
	if p.sc != nil {
		t1 := time.Now()
		p.d.observePlan(t1.Sub(t0))
		if p.sc.traced {
			trace.Record(ctx, "idx.plan", t0, t1,
				trace.Str("dataset", p.d.name),
				trace.Int("runs", int64(tileRows(plan.Tiles))),
				trace.Int("blocks", int64(len(spans))))
		}
	}
	return plan, spans
}

// fetchDecode gets block b from the backend and decodes it — the raw
// fetch under every cache layer. It returns the decoded payload, which
// the caller owns, and the compressed size, and accumulates the decode
// stage time; the fetch itself is the store's to measure.
func (p *blockPath) fetchDecode(ctx context.Context, b int) ([]byte, int64, error) {
	enc, err := p.d.be.Get(ctx, p.key(b))
	if err != nil {
		return nil, 0, fmt.Errorf("idx: block %d: %w", b, err)
	}
	sc := p.sc
	var t0 time.Time
	if sc != nil {
		t0 = time.Now()
	}
	raw, err := p.codec.Decode(enc, p.rawLen)
	if sc != nil {
		sc.decodeNS.Add(int64(time.Since(t0)))
	}
	if err != nil {
		return nil, 0, fmt.Errorf("idx: decode block %d: %w", b, err)
	}
	return raw, int64(len(enc)), nil
}

// fetchBlock returns the decoded payload of block b, read-only: with a
// cache attached it is the cache's shared copy, and a miss goes through
// GetOrFill, so concurrent fetches of the same key coalesce into one
// backend Get. encLen is the compressed bytes this call actually
// fetched — 0 when the block was served from cache or from another
// caller's in-flight fetch. cached reports a cache-tier hit.
func (p *blockPath) fetchBlock(ctx context.Context, b int) (raw []byte, encLen int64, cached bool, err error) {
	if p.d.cache == nil {
		raw, n, err := p.fetchDecode(ctx, b)
		return raw, n, false, err
	}
	var fetched int64
	blk, outcome, err := p.d.cache.GetOrFill(ctx, p.key(b), func(ctx context.Context) ([]byte, error) {
		raw, n, err := p.fetchDecode(ctx, b)
		fetched = n
		return raw, err
	})
	if err != nil {
		return nil, 0, false, err
	}
	hit := outcome == cache.OutcomeHit || outcome == cache.OutcomeDiskHit
	return blk.Bytes(), fetched, hit, nil
}

// readLattice is the one block reader: it extracts the level-L lattice
// samples of the field inside the half-open box [lo, hi) as a Volume3,
// one plane thick on a 2D dataset. Cached blocks
// are assembled immediately; misses are fetched from the backend with
// bounded parallelism and each block is assembled the moment its fetch
// completes, so assembly overlaps the remaining fetches instead of
// waiting behind a barrier. ctx bounds every fetch: once it is cancelled
// no further block is claimed and the context error is returned.
func (d *Dataset) readLattice(ctx context.Context, spanName, field string, t int, lo, hi [hz.Axes]int, level int) (*Volume3, *ReadStats, error) {
	start := time.Now()
	p, err := d.newBlockPath(field, t)
	if err != nil {
		return nil, nil, err
	}
	if level < 0 || level > d.Meta.MaxLevel() {
		return nil, nil, fmt.Errorf("idx: level %d outside [0,%d]", level, d.Meta.MaxLevel())
	}
	// Clip the box to the dataset, then align it to the level lattice:
	// the first lattice point at or above each lower bound.
	r := &Volume3{Dims: [3]int{1, 1, 1}, Stride: [3]int{1, 1, 1}}
	copy(r.Stride[:], d.Meta.Bits.LevelStrides(level))
	for a, dim := range d.Meta.Dims {
		lo[a], hi[a] = max(lo[a], 0), min(hi[a], dim)
		if hi[a] <= lo[a] {
			return nil, nil, fmt.Errorf("idx: empty query box")
		}
		s := r.Stride[a]
		r.Offset[a] = (lo[a] + s - 1) / s * s
		if r.Offset[a] >= hi[a] {
			return nil, nil, fmt.Errorf("idx: box contains no level-%d lattice samples on axis %d", level, a)
		}
		r.Dims[a] = (hi[a]-1-r.Offset[a])/s + 1
	}
	ctx, span := trace.Start(ctx, spanName,
		trace.Str("dataset", d.name),
		trace.Str("field", field),
		trace.Int("level", int64(level)))
	defer span.End()
	sc := d.newStageClock(span != nil)
	p.sc = sc

	r.Data = make([]float32, r.Dims[0]*r.Dims[1]*r.Dims[2])
	stats := &ReadStats{Samples: len(r.Data)}
	plan, spans := p.plan(ctx, hz.TileQuery{P0: r.Offset, N: r.Dims, Level: level})
	stats.Runs = tileRows(plan.Tiles)

	// take books where a block came from and gathers what it holds of
	// the query into the output.
	take := func(sp blockSpan, raw []byte, n int64, cached bool) {
		if cached {
			stats.BlocksCached++
		} else {
			stats.BlocksRead++
			stats.BytesRead += n
		}
		var t0 time.Time
		if sc != nil {
			t0 = time.Now()
		}
		gatherTiles(p.f.Type, r.Data, &plan, plan.Tiles[sp.lo:sp.hi], raw)
		if sc != nil {
			sc.assembleNS.Add(int64(time.Since(t0)))
		}
	}
	miss := spans[:0]
	for _, sp := range spans {
		if d.cache != nil {
			if blk, ok := d.cache.Peek(p.key(sp.block)); ok {
				take(sp, blk.Bytes(), 0, true)
				continue
			}
		}
		miss = append(miss, sp)
	}
	if err := p.fetchMisses(ctx, miss, d.fetchParallelism(), take); err != nil {
		return nil, nil, d.readErr(err)
	}

	if sc != nil && sc.traced {
		end := time.Now()
		trace.RecordDuration(ctx, "idx.decode", end, sc.decode(),
			trace.Str("dataset", d.name))
		trace.RecordDuration(ctx, "idx.assemble", end, sc.assemble(),
			trace.Str("dataset", d.name))
		span.SetAttr(
			trace.Int("blocks_read", int64(stats.BlocksRead)),
			trace.Int("blocks_cached", int64(stats.BlocksCached)),
			trace.Int("runs", int64(stats.Runs)))
	}
	d.observeRead(sc, start)
	return r, stats, nil
}

// fetchMisses fetches the blocks of miss — in ascending block order:
// deterministic, sequential on disk — and hands each to take on the
// caller's goroutine as it arrives: one after the other with a single
// worker, else through a pool of workers goroutines. The feeder stops
// handing out spans the moment ctx is cancelled or a fetch fails; a
// failure does not cancel ctx, because an in-flight fetch may be the
// cache fill other readers wait on. The pool always drains fully before
// fetchMisses returns, so a failed or cancelled read leaks no goroutines.
func (p *blockPath) fetchMisses(ctx context.Context, miss []blockSpan, workers int,
	take func(sp blockSpan, raw []byte, n int64, cached bool)) error {
	if workers = min(workers, len(miss)); workers <= 1 {
		for _, sp := range miss {
			if err := ctx.Err(); err != nil {
				return err
			}
			raw, n, cached, err := p.fetchBlock(ctx, sp.block)
			if err != nil {
				return err
			}
			take(sp, raw, n, cached)
		}
		return nil
	}
	type fetched struct {
		sp     blockSpan
		raw    []byte
		n      int64
		cached bool
		err    error
	}
	work := make(chan blockSpan)
	results := make(chan fetched)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range work {
				raw, n, cached, err := p.fetchBlock(ctx, sp.block)
				select {
				case results <- fetched{sp: sp, raw: raw, n: n, cached: cached, err: err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(work)
		for _, sp := range miss {
			select {
			case work <- sp:
			case <-ctx.Done():
				return
			case <-stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	var firstErr error
	for r := range results {
		if r.err != nil && firstErr == nil {
			firstErr = r.err
			close(stop)
		}
		if firstErr == nil {
			take(r.sp, r.raw, r.n, r.cached)
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// writeField is the one block writer: it stores src — the field's full
// resolution samples, dense and x fastest — as timestep t, producing
// every block of the HZ decomposition. Cancelling ctx aborts the worker
// pool at its next block claim; already-stored blocks are left behind
// (block writes are not transactional).
func (d *Dataset) writeField(ctx context.Context, spanName, field string, t int, src []float32) error {
	p, err := d.newBlockPath(field, t)
	if err != nil {
		return err
	}
	q := hz.TileQuery{N: [hz.Axes]int{1, 1, 1}, Level: d.Meta.MaxLevel()}
	copy(q.N[:], d.Meta.Dims)
	if len(src) != q.N[0]*q.N[1]*q.N[2] {
		return fmt.Errorf("idx: %d samples do not fill a dataset of dims %v", len(src), d.Meta.Dims)
	}
	blockSamples := d.Meta.BlockSamples()
	numBlocks := d.Meta.NumBlocks()

	start := time.Now()
	defer func() {
		if d.tel != nil {
			d.tel.writeSeconds.ObserveSince(start)
		}
	}()
	ctx, span := trace.Start(ctx, spanName,
		trace.Str("dataset", d.name),
		trace.Str("field", field),
		trace.Int("blocks", int64(numBlocks)))
	defer span.End()
	sc := d.newStageClock(span != nil)
	p.sc = sc

	// Each tile row scatters a strided span of src into its block.
	plan, spans := p.plan(ctx, q)
	// spanAt[b] indexes spans for block b, or -1 when no sample of src
	// maps into the block (pure padding).
	spanAt := make([]int, numBlocks)
	for i := range spanAt {
		spanAt[i] = -1
	}
	for i, sp := range spans {
		spanAt[sp.block] = i
	}

	// Fill template: padding samples (outside the logical dims) store the
	// field's fill value. Blocks with no sample of src at all share one
	// pre-encoded payload.
	rawFill := make([]byte, p.rawLen)
	p.f.Type.fillBlock(rawFill, p.f.Fill)
	var fillEnc []byte
	if len(spans) < numBlocks {
		fillEnc, err = p.codec.Encode(rawFill)
		if err != nil {
			return fmt.Errorf("idx: encode fill block: %w", err)
		}
	}

	// Write blocks in parallel: each worker owns whole blocks, so no
	// shared mutable state beyond the (concurrency-safe) backend. The
	// aborted flag fails the whole write fast once any worker hits an
	// encode or store error — or once ctx is cancelled — instead of
	// letting the others finish every remaining block.
	workers := d.writeWorkers(numBlocks)
	errCh := make(chan error, workers)
	var aborted atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fail := func(err error) {
				aborted.Store(true)
				errCh <- err
			}
			buf := make([]byte, p.rawLen)
			for !aborted.Load() {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				b := int(next.Add(1)) - 1
				if b >= numBlocks {
					return
				}
				var t0 time.Time
				if sc != nil {
					t0 = time.Now()
				}
				enc := fillEnc
				if si := spanAt[b]; si >= 0 {
					tiles := plan.Tiles[spans[si].lo:spans[si].hi]
					if tileSamples(tiles) < blockSamples {
						copy(buf, rawFill)
					}
					scatterTiles(p.f.Type, buf, &plan, tiles, src)
					var err error
					if enc, err = p.codec.Encode(buf); err != nil {
						fail(fmt.Errorf("idx: encode block %d: %w", b, err))
						return
					}
				}
				if sc != nil {
					sc.encodeNS.Add(int64(time.Since(t0)))
				}
				// Drop the key from every cache tier once the block is
				// stored: no read after a write is served its previous
				// payload.
				key := p.key(b)
				if err := d.be.Put(ctx, key, enc); err != nil {
					fail(fmt.Errorf("idx: store block %d: %w", b, err))
					return
				}
				if d.cache != nil {
					d.cache.Remove(key)
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return err
	}
	if d.tel != nil {
		d.tel.stageEncode.Observe(sc.encode().Seconds())
	}
	if sc != nil && sc.traced {
		trace.RecordDuration(ctx, "idx.encode", time.Now(), sc.encode(),
			trace.Str("dataset", d.name))
	}
	return nil
}
