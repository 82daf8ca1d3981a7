package idx

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/compress"
	"nsdfgo/internal/hz"
	"nsdfgo/internal/telemetry/trace"
)

// The IDX format is n-dimensional; OpenVisus routinely serves 3D and 4D
// simulation volumes. This file adds the volumetric API: WriteVolume and
// ReadBox3D over datasets whose Meta has three dimensions. Samples are
// addressed (x, y, z) with x fastest-varying in the flat slice, i.e.
// index = (z*H + y)*W + x.

// Box3 is a half-open 3D region.
type Box3 struct {
	// X0, Y0, Z0 are the inclusive lower corner.
	X0, Y0, Z0 int
	// X1, Y1, Z1 are the exclusive upper corner.
	X1, Y1, Z1 int
}

// Empty reports whether the box contains no voxels.
func (b Box3) Empty() bool { return b.X1 <= b.X0 || b.Y1 <= b.Y0 || b.Z1 <= b.Z0 }

// FullBox3 returns the dataset's entire 3D extent.
func (d *Dataset) FullBox3() Box3 {
	return Box3{X1: d.Meta.Dims[0], Y1: d.Meta.Dims[1], Z1: d.Meta.Dims[2]}
}

// Clip3 intersects the box with the dataset's logical extent.
func (d *Dataset) Clip3(b Box3) Box3 {
	clamp := func(v, hi int) int {
		if v < 0 {
			return 0
		}
		if v > hi {
			return hi
		}
		return v
	}
	b.X0, b.X1 = clamp(b.X0, d.Meta.Dims[0]), clamp(b.X1, d.Meta.Dims[0])
	b.Y0, b.Y1 = clamp(b.Y0, d.Meta.Dims[1]), clamp(b.Y1, d.Meta.Dims[1])
	b.Z0, b.Z1 = clamp(b.Z0, d.Meta.Dims[2]), clamp(b.Z1, d.Meta.Dims[2])
	return b
}

// WriteVolume stores a full-resolution 3D volume as timestep t of the
// named field. data must hold Dims[0]*Dims[1]*Dims[2] samples, x fastest.
// Cancelling ctx aborts the worker pool at its next block claim.
func (d *Dataset) WriteVolume(ctx context.Context, field string, t int, data []float32) error {
	f, err := d.checkFieldTime(field, t)
	if err != nil {
		return err
	}
	if len(d.Meta.Dims) != 3 {
		return fmt.Errorf("idx: WriteVolume requires a 3D dataset; this one has %d dims", len(d.Meta.Dims))
	}
	w, h, depth := d.Meta.Dims[0], d.Meta.Dims[1], d.Meta.Dims[2]
	if len(data) != w*h*depth {
		return fmt.Errorf("idx: volume holds %d samples, want %d for %dx%dx%d", len(data), w*h*depth, w, h, depth)
	}
	codec, err := compress.Lookup(f.Codec)
	if err != nil {
		return err
	}
	mask := d.Meta.Bits
	m := mask.Bits()
	blockSamples := d.Meta.BlockSamples()
	numBlocks := d.Meta.NumBlocks()
	sz := f.Type.Size()

	start := time.Now()
	defer func() {
		if d.tel != nil {
			d.tel.writeSeconds.ObserveSince(start)
		}
	}()
	ctx, span := trace.Start(ctx, "idx.write3d",
		trace.Str("dataset", d.name),
		trace.Str("field", field),
		trace.Int("blocks", int64(numBlocks)))
	defer span.End()
	sc := d.newStageClock(span != nil)

	keys := d.blockKeys(field, t)
	blockKey := func(b int) string {
		if keys != nil {
			return keys[b]
		}
		return d.BlockKey(field, t, b)
	}

	// The aborted flag mirrors WriteGrid's early abort: one worker's
	// encode/store failure stops the others at their next block claim.
	workers := d.writeWorkers(numBlocks)
	errCh := make(chan error, workers)
	var aborted atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := make([]int, 3)
			buf := make([]byte, blockSamples*sz)
			for {
				if aborted.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					aborted.Store(true)
					errCh <- err
					return
				}
				b := int(next.Add(1)) - 1
				if b >= numBlocks {
					return
				}
				var encStart time.Time
				if sc != nil {
					encStart = time.Now()
				}
				hz0 := uint64(b) << d.Meta.BitsPerBlock
				for i := 0; i < blockSamples; i++ {
					hzAddr := hz0 + uint64(i)
					v := f.Fill
					if hzAddr < uint64(1)<<m {
						mask.Deinterleave(hz.HZToZ(hzAddr, m), p)
						if p[0] < w && p[1] < h && p[2] < depth {
							v = data[(p[2]*h+p[1])*w+p[0]]
						}
					}
					f.Type.putSample(buf[i*sz:], v)
				}
				enc, err := codec.Encode(buf)
				if err != nil {
					aborted.Store(true)
					errCh <- fmt.Errorf("idx: encode block %d: %w", b, err)
					return
				}
				var putStart time.Time
				if sc != nil {
					putStart = time.Now()
					sc.encodeNS.Add(int64(putStart.Sub(encStart)))
				}
				if err := d.be.Put(ctx, blockKey(b), enc); err != nil {
					aborted.Store(true)
					errCh <- fmt.Errorf("idx: store block %d: %w", b, err)
					return
				}
				if sc != nil {
					putEnd := time.Now()
					sc.storeNS.Add(int64(putEnd.Sub(putStart)))
					if sc.traced {
						trace.Record(ctx, "storage.put", putStart, putEnd,
							trace.Str("dataset", d.name),
							trace.Int("block", int64(b)),
							trace.Int("bytes", int64(len(enc))))
					}
				}
				d.recordBlockWrite(len(enc))
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	if sc != nil {
		d.observeWriteStages(sc)
		if sc.traced {
			end := time.Now()
			trace.RecordDuration(ctx, "idx.encode", end, sc.encode(),
				trace.Str("dataset", d.name))
			trace.RecordDuration(ctx, "idx.store", end, sc.store(),
				trace.Str("dataset", d.name))
		}
	}
	return nil
}

// Volume3 is a dense 3D query result: Data holds Dims[0]*Dims[1]*Dims[2]
// samples, x fastest-varying.
type Volume3 struct {
	// Dims are the result extents (x, y, z).
	Dims [3]int
	// Data holds the samples.
	Data []float32
	// Offset is the full-resolution coordinate of the result's first
	// sample; Stride is the sampling stride per axis at the read level.
	Offset, Stride [3]int
}

// At returns the sample at result coordinates (x,y,z).
func (v *Volume3) At(x, y, z int) float32 {
	return v.Data[(z*v.Dims[1]+y)*v.Dims[0]+x]
}

// ReadBox3D extracts the level-L lattice samples within box from a 3D
// dataset, using the same cached block fetching as the 2D path. ctx
// bounds every block fetch; cancellation returns the context error.
func (d *Dataset) ReadBox3D(ctx context.Context, field string, t int, box Box3, level int) (*Volume3, *ReadStats, error) {
	start := time.Now()
	f, err := d.checkFieldTime(field, t)
	if err != nil {
		return nil, nil, err
	}
	if len(d.Meta.Dims) != 3 {
		return nil, nil, fmt.Errorf("idx: ReadBox3D requires a 3D dataset")
	}
	if level < 0 || level > d.Meta.MaxLevel() {
		return nil, nil, fmt.Errorf("idx: level %d outside [0,%d]", level, d.Meta.MaxLevel())
	}
	box = d.Clip3(box)
	if box.Empty() {
		return nil, nil, fmt.Errorf("idx: empty query box")
	}
	codec, err := compress.Lookup(f.Codec)
	if err != nil {
		return nil, nil, err
	}
	ctx, span := trace.Start(ctx, "idx.read3d",
		trace.Str("dataset", d.name),
		trace.Str("field", field),
		trace.Int("level", int64(level)))
	defer span.End()
	sc := d.newStageClock(span != nil)
	mask := d.Meta.Bits
	strides := mask.LevelStrides(level)
	align := func(lo, stride int) int { return (lo + stride - 1) / stride * stride }
	a := [3]int{align(box.X0, strides[0]), align(box.Y0, strides[1]), align(box.Z0, strides[2])}
	hiBound := [3]int{box.X1, box.Y1, box.Z1}
	var dims [3]int
	for ax := 0; ax < 3; ax++ {
		if a[ax] >= hiBound[ax] {
			return nil, nil, fmt.Errorf("idx: box contains no level-%d lattice samples on axis %d", level, ax)
		}
		dims[ax] = (hiBound[ax]-1-a[ax])/strides[ax] + 1
	}

	total := dims[0] * dims[1] * dims[2]
	out := &Volume3{Dims: dims, Data: make([]float32, total),
		Offset: a, Stride: [3]int{strides[0], strides[1], strides[2]}}
	stats := &ReadStats{Samples: total}
	blockSamples := d.Meta.BlockSamples()
	sz := f.Type.Size()
	rawBlockLen := blockSamples * sz

	// Plan: interleave each x-row incrementally (InterleaveRow's masked
	// increments) instead of re-interleaving every sample, then convert
	// to HZ. The block set stays map-backed — 3D reads are not on the 2D
	// tile plan — but consecutive duplicates are skipped before touching
	// the map.
	var planStart time.Time
	if sc != nil {
		planStart = time.Now()
	}
	addrs := make([]uint64, total)
	rowZ := make([]uint64, dims[0])
	needSet := map[int]bool{}
	m := mask.Bits()
	p := make([]int, 3)
	i := 0
	lastB := -1
	for oz := 0; oz < dims[2]; oz++ {
		p[2] = a[2] + oz*strides[2]
		for oy := 0; oy < dims[1]; oy++ {
			p[1] = a[1] + oy*strides[1]
			p[0] = a[0]
			mask.InterleaveRow(rowZ, p, 0, strides[0])
			for ox := 0; ox < dims[0]; ox++ {
				hzAddr := hz.ZToHZ(rowZ[ox], m)
				addrs[i] = hzAddr
				if b := int(hzAddr >> d.Meta.BitsPerBlock); b != lastB {
					needSet[b] = true
					lastB = b
				}
				i++
			}
		}
	}

	if sc != nil {
		planEnd := time.Now()
		d.observePlan(planEnd.Sub(planStart))
		if sc.traced {
			trace.Record(ctx, "idx.plan", planStart, planEnd,
				trace.Str("dataset", d.name),
				trace.Int("blocks", int64(len(needSet))))
		}
	}

	// Fetch (cache first, then backend; serial is fine here — the 2D path
	// demonstrates the parallel fetch, and both share fetchBlockKey).
	// Block names come from the precomputed blockKeys table, not a
	// per-block Sprintf in the hot loop.
	keys := d.blockKeys(field, t)
	blockKey := func(b int) string {
		if keys != nil {
			return keys[b]
		}
		return d.BlockKey(field, t, b)
	}
	blocks := make(map[int]*cache.Block, len(needSet))
	defer func() {
		for _, blk := range blocks {
			blk.Release()
		}
	}()
	misses := make([]int, 0, len(needSet))
	for b := range needSet {
		if d.cache != nil {
			if blk, ok := d.cachePeek(blockKey(b)); ok {
				stats.BlocksCached++
				blocks[b] = blk
				continue
			}
		}
		misses = append(misses, b)
	}
	sort.Ints(misses)
	for _, b := range misses {
		if err := ctx.Err(); err != nil {
			return nil, nil, d.readErr(err)
		}
		blk, n, cached, err := d.fetchBlockKey(ctx, blockKey(b), b, codec, rawBlockLen, sc)
		if err != nil {
			return nil, nil, d.readErr(err)
		}
		if cached {
			stats.BlocksCached++
		} else {
			stats.BlocksRead++
			stats.BytesRead += n
		}
		blocks[b] = blk
	}

	// Assemble.
	var asmStart time.Time
	if sc != nil {
		asmStart = time.Now()
	}
	for i, hzAddr := range addrs {
		raw := blocks[int(hzAddr>>d.Meta.BitsPerBlock)].Bytes()
		off := int(hzAddr&uint64(blockSamples-1)) * sz
		out.Data[i] = f.Type.getSample(raw[off:])
	}
	if sc != nil {
		sc.assembleNS.Add(int64(time.Since(asmStart)))
		d.observeReadStages(sc)
		if sc.traced {
			end := time.Now()
			trace.RecordDuration(ctx, "idx.fetch", end, sc.fetch(),
				trace.Str("dataset", d.name),
				trace.Int("blocks", int64(stats.BlocksRead)),
				trace.Int("bytes", stats.BytesRead))
			trace.RecordDuration(ctx, "idx.decode", end, sc.decode(),
				trace.Str("dataset", d.name))
			trace.RecordDuration(ctx, "idx.assemble", end, sc.assemble(),
				trace.Str("dataset", d.name))
		}
	}
	d.recordRead(stats)
	if d.tel != nil {
		d.tel.readSeconds.ObserveSince(start)
	}
	return out, stats, nil
}

// ReadSliceZ extracts one full-resolution XY slice at depth z — the 3D
// analogue of the dashboard's slicing tools.
func (d *Dataset) ReadSliceZ(ctx context.Context, field string, t, z int) (*Volume3, *ReadStats, error) {
	if len(d.Meta.Dims) != 3 {
		return nil, nil, fmt.Errorf("idx: ReadSliceZ requires a 3D dataset")
	}
	if z < 0 || z >= d.Meta.Dims[2] {
		return nil, nil, fmt.Errorf("idx: slice depth %d outside [0,%d)", z, d.Meta.Dims[2])
	}
	box := d.FullBox3()
	box.Z0, box.Z1 = z, z+1
	return d.ReadBox3D(ctx, field, t, box, d.Meta.MaxLevel())
}
