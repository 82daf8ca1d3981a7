package idx

import (
	"bytes"
	"context"
	"math"
	"math/bits"
	"sort"
	"sync"
	"testing"

	"nsdfgo/internal/compress"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/storage"
)

// readBoxPerSample and writeGridPerSample below are per-sample copies
// of the first implementations of ReadBox and WriteGrid (an HZ address
// per output sample, map-backed block sets, a raster sample looked up
// per block slot). They are the reference the tile-plan kernels behind
// ReadBox and WriteGrid are checked against, bit for bit
// (verifyKernelAgreement); what the kernels cost on a real request is
// bench/e2e's idx and hz rows.

// zToHZ maps a Z-order address under a mask of m bits to its HZ
// address: level l = m - trailingZeros(z) starts at 2^(l-1).
func zToHZ(z uint64, m int) uint64 {
	if z == 0 {
		return 0
	}
	l := m - bits.TrailingZeros64(z)
	return uint64(1)<<(l-1) + z>>(m-l+1)
}

// readBoxPerSample is the pre-kernel ReadBox (PR 1 vintage).
func readBoxPerSample(d *Dataset, field string, t int, box Box, level int) (*raster.Grid, *ReadStats, error) {
	bp, err := d.newBlockPath(field, t)
	if err != nil {
		return nil, nil, err
	}
	f := bp.f
	mask := d.Meta.Bits
	strides := mask.LevelStrides(level)
	sx, sy := strides[0], strides[1]
	ax0 := (box.X0 + sx - 1) / sx * sx
	ay0 := (box.Y0 + sy - 1) / sy * sy
	ow := (box.X1-1-ax0)/sx + 1
	oh := (box.Y1-1-ay0)/sy + 1

	out := raster.New(ow, oh)
	stats := &ReadStats{Samples: ow * oh}
	blockSamples := d.Meta.BlockSamples()
	sz := f.Type.Size()

	addrs := make([]uint64, ow*oh)
	needSet := map[int]bool{}
	p := make([]int, 2)
	for oy := 0; oy < oh; oy++ {
		p[1] = ay0 + oy*sy
		for ox := 0; ox < ow; ox++ {
			p[0] = ax0 + ox*sx
			hzAddr := zToHZ(mask.Interleave(p), mask.Bits())
			addrs[oy*ow+ox] = hzAddr
			needSet[int(hzAddr>>d.Meta.BitsPerBlock)] = true
		}
	}

	blocks := make(map[int][]byte, len(needSet))
	var misses []int
	for b := range needSet {
		if d.cache != nil {
			if blk, ok := d.cache.Peek(d.BlockKey(field, t, b)); ok {
				stats.BlocksCached++
				blocks[b] = blk.Bytes()
				continue
			}
		}
		misses = append(misses, b)
	}
	sort.Ints(misses)
	for _, b := range misses {
		raw, n, _, err := bp.fetchBlock(context.Background(), b)
		if err != nil {
			return nil, nil, err
		}
		stats.BlocksRead++
		stats.BytesRead += n
		blocks[b] = raw
	}

	for i, hzAddr := range addrs {
		raw := blocks[int(hzAddr>>d.Meta.BitsPerBlock)]
		off := int(hzAddr&uint64(blockSamples-1)) * sz
		out.Data[i] = getSample(f.Type, raw[off:])
	}
	return out, stats, nil
}

// writeGridPerSample is the pre-kernel WriteGrid (PR 1 vintage).
func writeGridPerSample(d *Dataset, field string, t int, g *raster.Grid) error {
	f, err := d.checkFieldTime(field, t)
	if err != nil {
		return err
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
	w, h := g.W, g.H

	// slot[a] is the raster index of the sample at HZ address a, or -1
	// where a is padding.
	slot := make([]int, 1<<m)
	for i := range slot {
		slot[i] = -1
	}
	p := make([]int, mask.Dims())
	for p[1] = 0; p[1] < h; p[1]++ {
		for p[0] = 0; p[0] < w; p[0]++ {
			slot[zToHZ(mask.Interleave(p), m)] = p[1]*w + p[0]
		}
	}

	workers := d.writeWorkers(numBlocks)
	errCh := make(chan error, workers)
	var next int
	var mu sync.Mutex
	takeBlock := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= numBlocks {
			return -1
		}
		b := next
		next++
		return b
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, blockSamples*sz)
			for {
				b := takeBlock()
				if b < 0 {
					return
				}
				hz0 := uint64(b) << d.Meta.BitsPerBlock
				for i := 0; i < blockSamples; i++ {
					hzAddr := hz0 + uint64(i)
					v := f.Fill
					if hzAddr < uint64(1)<<m && slot[hzAddr] >= 0 {
						v = g.Data[slot[hzAddr]]
					}
					f.Type.putSample(buf[i*sz:], v)
				}
				enc, err := codec.Encode(buf)
				if err != nil {
					errCh <- err
					return
				}
				if err := d.be.Put(context.Background(), d.BlockKey(field, t, b), enc); err != nil {
					errCh <- err
					return
				}
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
	return nil
}

// verifyReadAgreement cross-checks ReadBox against the per-sample
// reference, bit for bit, over the full extent and three sub-boxes whose
// corners sit off every coarse lattice, at each of the given levels.
func verifyReadAgreement(tb testing.TB, ds *Dataset, field string, levels []int) {
	tb.Helper()
	w, h := ds.Meta.Dims[0], ds.Meta.Dims[1]
	boxes := []Box{
		ds.FullBox(),
		{X0: w/3 + 1, Y0: h/5 + 3, X1: w - w/7, Y1: h - 1},
		{X0: w - 1, Y0: 0, X1: w, Y1: h},
		{X0: 1, Y0: h / 2, X1: w/2 + 1, Y1: h/2 + 1},
	}
	for _, level := range levels {
		for _, box := range boxes {
			// A box between two lattice points holds no sample; ReadBox
			// rejects it and the reference does not handle it.
			s := ds.Meta.Bits.LevelStrides(level)
			if (box.X0+s[0]-1)/s[0]*s[0] >= box.X1 || (box.Y0+s[1]-1)/s[1]*s[1] >= box.Y1 {
				continue
			}
			want, _, err := readBoxPerSample(ds, field, 0, box, level)
			if err != nil {
				tb.Fatal(err)
			}
			got, _, err := ds.ReadBox(context.Background(), field, 0, box, level)
			if err != nil {
				tb.Fatalf("%s level %d box %+v: %v", field, level, box, err)
			}
			if want.W != got.W || want.H != got.H {
				tb.Fatalf("%s level %d box %+v: kernel read %dx%d, per-sample read %dx%d",
					field, level, box, got.W, got.H, want.W, want.H)
			}
			for i := range want.Data {
				if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
					tb.Fatalf("%s level %d box %+v sample %d: kernel %v, per-sample %v",
						field, level, box, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// verifyKernelAgreement cross-checks the tile kernels against the
// per-sample references in both directions. It compares reads of ds at
// full, middle and coarse resolution; then, for every DType on a grid
// with non-power-of-two sides and many small blocks, it requires
// WriteGrid to store exactly the bytes writeGridPerSample stores, and
// ReadBox to agree with readBoxPerSample at every level. The samples
// include a NaN, negatives, fractions and values beyond every integer
// type's range, so clamping is compared too.
func verifyKernelAgreement(tb testing.TB, ds *Dataset) {
	tb.Helper()
	max := ds.Meta.MaxLevel()
	verifyReadAgreement(tb, ds, ds.Meta.Fields[0].Name, []int{max, max - 3, 5})

	const w, h = 150, 70
	g := raster.New(w, h)
	for i := range g.Data {
		g.Data[i] = float32((i*7919)%140000)/2 - 1000.25
	}
	g.Data[w+1] = float32(math.NaN())
	ctx := context.Background()
	for _, dt := range []DType{Float32, Float64, Uint8, Uint16, Int16, Uint32} {
		name := dt.String()
		meta, err := NewMeta([]int{w, h}, []Field{{Name: name, Type: dt, Codec: "raw", Fill: -3}})
		if err != nil {
			tb.Fatal(err)
		}
		meta.BitsPerBlock = 9
		backends := [2]*storage.IDXBackend{newBackend(), newBackend()}
		var sets [2]*Dataset
		for i, be := range backends {
			if sets[i], err = Create(ctx, be, meta); err != nil {
				tb.Fatal(err)
			}
		}
		if err := writeGridPerSample(sets[0], name, 0, g); err != nil {
			tb.Fatal(err)
		}
		if err := sets[1].WriteGrid(ctx, name, 0, g); err != nil {
			tb.Fatal(err)
		}
		blocks, err := backends[0].List(ctx, BlockPrefix)
		if err != nil {
			tb.Fatal(err)
		}
		if len(blocks) != meta.NumBlocks() {
			tb.Fatalf("%s: per-sample write stored %d blocks, want %d", name, len(blocks), meta.NumBlocks())
		}
		for _, key := range blocks {
			want, err := backends[0].Get(ctx, key)
			if err != nil {
				tb.Fatal(err)
			}
			got, err := backends[1].Get(ctx, key)
			if err != nil || !bytes.Equal(got, want) {
				tb.Fatalf("%s %s: WriteGrid stored other bytes than the per-sample write (err %v)", name, key, err)
			}
		}
		levels := make([]int, meta.MaxLevel()+1)
		for l := range levels {
			levels[l] = l
		}
		verifyReadAgreement(tb, sets[1], name, levels)
	}
}

// TestKernelAgreement runs the cross-check in tier-1, on a dataset
// small enough for the per-sample reference.
func TestKernelAgreement(t *testing.T) {
	ds, _ := newTestDataset(t, 300, 200, float32Fields())
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(300, 200)); err != nil {
		t.Fatal(err)
	}
	verifyKernelAgreement(t, ds)
}
