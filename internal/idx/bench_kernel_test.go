package idx

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/compress"
	"nsdfgo/internal/hz"
	"nsdfgo/internal/raster"
)

// This file measures the tile-plan HZ kernels against the pre-kernel
// per-sample path. readBoxPerSample and writeGridPerSample below are
// faithful copies of the first implementations (PointHZ per output
// sample, map-backed block sets, HZToZ+Deinterleave per block slot),
// kept as the reference ReadBox, WriteGrid and WriteRegion are checked
// against (verifyKernelAgreement) and as the baseline of
// BENCH_readpath.json. Benchmarks run warm-cache: that isolates the
// addressing and assembly work the kernels do — the interactive
// dashboard scenario — from backend and codec costs common to both
// paths.

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
			hzAddr := mask.PointHZ(p)
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
			p := make([]int, mask.Dims())
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
					if hzAddr < uint64(1)<<m {
						mask.Deinterleave(hz.HZToZ(hzAddr, m), p)
						if p[0] < w && p[1] < h {
							v = g.Data[p[1]*w+p[0]]
						}
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

// benchSide is the dataset geometry the acceptance criteria name:
// 2048x2048 float32, raw codec, default 2^16-sample blocks.
const benchSide = 2048

// newKernelBenchDataset builds the benchmark dataset with a warm block
// cache (one full-resolution read populates it).
func newKernelBenchDataset(tb testing.TB) (*Dataset, *raster.Grid) {
	tb.Helper()
	meta, err := NewMeta([]int{benchSide, benchSide},
		[]Field{{Name: "v", Type: Float32, Codec: "raw"}})
	if err != nil {
		tb.Fatal(err)
	}
	ds, err := Create(context.Background(), NewMemBackend(), meta)
	if err != nil {
		tb.Fatal(err)
	}
	g := rampGrid(benchSide, benchSide)
	if err := ds.WriteGrid(context.Background(), "v", 0, g); err != nil {
		tb.Fatal(err)
	}
	ds.SetCache(cache.NewMemTiered(64 << 20))
	if _, _, err := ds.ReadFull(context.Background(), "v", 0); err != nil {
		tb.Fatal(err)
	}
	return ds, g
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
// WriteGrid and a quartered WriteRegion to store exactly the bytes
// writeGridPerSample stores, and ReadBox to agree with readBoxPerSample
// at every level. The samples include a NaN, negatives, fractions and
// values beyond every integer type's range, so clamping is compared too.
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
		backends := [3]*MemBackend{NewMemBackend(), NewMemBackend(), NewMemBackend()}
		var sets [3]*Dataset
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
		for _, q := range []Box{{0, 0, 77, 31}, {77, 0, w, 31}, {0, 31, 77, h}, {77, 31, w, h}} {
			part, err := g.Crop(q.X0, q.Y0, q.X1-q.X0, q.Y1-q.Y0)
			if err != nil {
				tb.Fatal(err)
			}
			if err := sets[2].WriteRegion(ctx, name, 0, q.X0, q.Y0, part); err != nil {
				tb.Fatal(err)
			}
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
			// WriteRegion leaves blocks that hold only padding unwritten.
			got, err = backends[2].Get(ctx, key)
			if err != nil && !IsNotExist(err) {
				tb.Fatal(err)
			}
			if err == nil && !bytes.Equal(got, want) {
				tb.Fatalf("%s %s: WriteRegion stored other bytes than the per-sample write", name, key)
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

// BenchmarkReadBoxKernel compares the tile-plan streaming ReadBox
// against the per-sample reference on a warm cache.
func BenchmarkReadBoxKernel(b *testing.B) {
	ds, _ := newKernelBenchDataset(b)
	verifyKernelAgreement(b, ds)
	box := ds.FullBox()
	level := ds.Meta.MaxLevel()
	b.Run("kernel", func(b *testing.B) {
		b.SetBytes(int64(benchSide * benchSide * 4))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ds.ReadBox(context.Background(), "v", 0, box, level); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("persample", func(b *testing.B) {
		b.SetBytes(int64(benchSide * benchSide * 4))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := readBoxPerSample(ds, "v", 0, box, level); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWriteGridKernel compares the tile-plan WriteGrid against the
// per-sample reference.
func BenchmarkWriteGridKernel(b *testing.B) {
	ds, g := newKernelBenchDataset(b)
	b.Run("kernel", func(b *testing.B) {
		b.SetBytes(int64(benchSide * benchSide * 4))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ds.WriteGrid(context.Background(), "v", 0, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("persample", func(b *testing.B) {
		b.SetBytes(int64(benchSide * benchSide * 4))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := writeGridPerSample(ds, "v", 0, g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// runConcurrently starts n goroutines behind a barrier, runs fn(i) in
// each, and returns the per-goroutine elapsed times.
func runConcurrently(n int, fn func(i int)) []time.Duration {
	elapsed := make([]time.Duration, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			start.Wait()
			t0 := time.Now()
			fn(i)
			elapsed[i] = time.Since(t0)
		}(i)
	}
	start.Done()
	wg.Wait()
	return elapsed
}

// meanNsPerOp averages per-goroutine latency per operation.
func meanNsPerOp(elapsed []time.Duration, opsEach int) float64 {
	var total float64
	for _, e := range elapsed {
		total += float64(e.Nanoseconds()) / float64(opsEach)
	}
	return total / float64(len(elapsed))
}

// benchSample is one measured configuration in BENCH_readpath.json.
type benchSample struct {
	NsPerOp     float64 `json:"ns_per_op"`
	MsPerOp     float64 `json:"ms_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchComparison pairs the kernel and per-sample variants of one path.
type benchComparison struct {
	Kernel       benchSample `json:"kernel"`
	PerSample    benchSample `json:"per_sample"`
	Speedup      float64     `json:"speedup"`
	AllocsFactor float64     `json:"allocs_reduction_factor"`
}

// TestBenchReadpathEmit measures both paths and writes BENCH_readpath.json.
// It is gated on NSDF_BENCH_READPATH_ITERS (iteration count; unset or 0
// skips) so plain `go test ./...` stays fast; NSDF_BENCH_READPATH_OUT
// overrides the output path (default: a throwaway temp file, making the
// 1-iteration smoke run in `make check` side-effect free).
func TestBenchReadpathEmit(t *testing.T) {
	iters, _ := strconv.Atoi(os.Getenv("NSDF_BENCH_READPATH_ITERS"))
	if iters <= 0 {
		t.Skip("set NSDF_BENCH_READPATH_ITERS>=1 to run the readpath benchmark emitter")
	}
	outPath := os.Getenv("NSDF_BENCH_READPATH_OUT")
	if outPath == "" {
		outPath = t.TempDir() + "/BENCH_readpath.json"
	}
	ds, g := newKernelBenchDataset(t)
	verifyKernelAgreement(t, ds)
	box := ds.FullBox()
	level := ds.Meta.MaxLevel()

	measure := func(fn func()) benchSample {
		fn() // warm-up: key caches, page faults, cache population
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		ns := float64(elapsed.Nanoseconds()) / float64(iters)
		return benchSample{
			NsPerOp:     ns,
			MsPerOp:     ns / 1e6,
			AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		}
	}
	compare := func(kernel, perSample func()) benchComparison {
		k := measure(kernel)
		p := measure(perSample)
		c := benchComparison{Kernel: k, PerSample: p}
		if k.NsPerOp > 0 {
			c.Speedup = p.NsPerOp / k.NsPerOp
		}
		if k.AllocsPerOp > 0 {
			c.AllocsFactor = p.AllocsPerOp / k.AllocsPerOp
		}
		return c
	}

	read := compare(
		func() {
			if _, _, err := ds.ReadBox(context.Background(), "v", 0, box, level); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if _, _, err := readBoxPerSample(ds, "v", 0, box, level); err != nil {
				t.Fatal(err)
			}
		},
	)
	write := compare(
		func() {
			if err := ds.WriteGrid(context.Background(), "v", 0, g); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if err := writeGridPerSample(ds, "v", 0, g); err != nil {
				t.Fatal(err)
			}
		},
	)

	// --- Concurrent mixed workload at GOMAXPROCS=4. The single-threaded
	// comparisons above are contention-blind (ROADMAP calls this out), so
	// this section measures the kernel path the way the dashboard runs
	// it: 4 readers racing mixed-resolution ReadBoxes on a shared warm
	// cache, then 3 readers racing a concurrent writer on a second
	// field. The single-threaded numbers stay in the JSON alongside for
	// trajectory. ---
	prevProcs := runtime.GOMAXPROCS(4)
	concMeta, err := NewMeta([]int{benchSide, benchSide},
		[]Field{{Name: "v", Type: Float32, Codec: "raw"}, {Name: "w", Type: Float32, Codec: "raw"}})
	if err != nil {
		t.Fatal(err)
	}
	concDS, err := Create(context.Background(), NewMemBackend(), concMeta)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"v", "w"} {
		if err := concDS.WriteGrid(context.Background(), field, 0, g); err != nil {
			t.Fatal(err)
		}
		if _, _, err := concDS.ReadFull(context.Background(), field, 0); err != nil {
			t.Fatal(err)
		}
	}
	concDS.SetCache(cache.NewMemTiered(128 << 20))
	if _, _, err := concDS.ReadFull(context.Background(), "v", 0); err != nil { // warm the cache
		t.Fatal(err)
	}
	if _, _, err := concDS.ReadFull(context.Background(), "w", 0); err != nil {
		t.Fatal(err)
	}

	maxLevel := concDS.Meta.MaxLevel()
	mixLevels := []int{maxLevel, maxLevel - 2, maxLevel - 4}
	mixOpsEach := 3 * iters
	mixElapsed := runConcurrently(4, func(int) {
		for i := 0; i < mixOpsEach; i++ {
			level := mixLevels[i%len(mixLevels)]
			if _, _, err := concDS.ReadBox(context.Background(), "v", 0, concDS.FullBox(), level); err != nil {
				t.Error(err)
				return
			}
		}
	})
	mixReadNs := meanNsPerOp(mixElapsed, mixOpsEach)
	var mixWall time.Duration
	for _, e := range mixElapsed {
		if e > mixWall {
			mixWall = e
		}
	}

	rwReadOps, rwWriteOps := 3*iters, iters
	rwElapsed := runConcurrently(4, func(i int) {
		if i == 3 { // one writer refreshes the second field
			for j := 0; j < rwWriteOps; j++ {
				if err := concDS.WriteGrid(context.Background(), "w", 0, g); err != nil {
					t.Error(err)
					return
				}
			}
			return
		}
		for j := 0; j < rwReadOps; j++ {
			if _, _, err := concDS.ReadBox(context.Background(), "v", 0, concDS.FullBox(), maxLevel); err != nil {
				t.Error(err)
				return
			}
		}
	})
	rwReadNs := meanNsPerOp(rwElapsed[:3], rwReadOps)
	rwWriteNs := float64(rwElapsed[3].Nanoseconds()) / float64(rwWriteOps)
	concProcs := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(prevProcs)

	type concMixed struct {
		Readers         int     `json:"readers"`
		OpsPerReader    int     `json:"ops_per_reader"`
		Levels          string  `json:"levels"`
		ReadNsPerOp     float64 `json:"read_ns_per_op"`
		ReadMsPerOp     float64 `json:"read_ms_per_op"`
		AggregateMBPerS float64 `json:"aggregate_mb_per_s"`
	}
	type concRW struct {
		Readers      int     `json:"readers"`
		Writers      int     `json:"writers"`
		ReadNsPerOp  float64 `json:"read_ns_per_op"`
		ReadMsPerOp  float64 `json:"read_ms_per_op"`
		WriteNsPerOp float64 `json:"write_ns_per_op"`
		WriteMsPerOp float64 `json:"write_ms_per_op"`
	}
	// Mixed levels read full grids at strides 1, 2, 4: bytes per round of
	// 3 ops = full + 1/4 + 1/16 of the full-resolution payload.
	mixBytesPerReader := float64(benchSide*benchSide*4) * (1 + 0.25 + 0.0625) * float64(iters)
	mixAggMBPerS := 4 * mixBytesPerReader / (1 << 20) / mixWall.Seconds()

	doc := struct {
		Description string          `json:"description"`
		Dataset     string          `json:"dataset"`
		Iters       int             `json:"iterations"`
		GOMAXPROCS  int             `json:"gomaxprocs"`
		ReadBox     benchComparison `json:"read_box"`
		WriteGrid   benchComparison `json:"write_grid"`
		Concurrent  struct {
			GOMAXPROCS int       `json:"gomaxprocs"`
			MixedRead  concMixed `json:"mixed_read"`
			ReadWrite  concRW    `json:"read_write_mix"`
		} `json:"concurrent"`
	}{
		Description: "Tile-plan HZ kernels vs the per-sample reference path (single-threaded, kept for trajectory), plus a concurrent mixed workload at GOMAXPROCS=4: 4 readers over mixed levels, and 3 readers racing 1 writer. Warm block cache, raw codec. Regenerate with `make bench-readpath`.",
		Dataset:     fmt.Sprintf("%dx%d float32, 2^%d-sample blocks", benchSide, benchSide, ds.Meta.BitsPerBlock),
		Iters:       iters,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		ReadBox:     read,
		WriteGrid:   write,
	}
	doc.Concurrent.GOMAXPROCS = concProcs
	doc.Concurrent.MixedRead = concMixed{
		Readers:         4,
		OpsPerReader:    mixOpsEach,
		Levels:          fmt.Sprintf("%d,%d,%d", mixLevels[0], mixLevels[1], mixLevels[2]),
		ReadNsPerOp:     mixReadNs,
		ReadMsPerOp:     mixReadNs / 1e6,
		AggregateMBPerS: mixAggMBPerS,
	}
	doc.Concurrent.ReadWrite = concRW{
		Readers:      3,
		Writers:      1,
		ReadNsPerOp:  rwReadNs,
		ReadMsPerOp:  rwReadNs / 1e6,
		WriteNsPerOp: rwWriteNs,
		WriteMsPerOp: rwWriteNs / 1e6,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("ReadBox: kernel %.1fms / %.0f allocs, per-sample %.1fms / %.0f allocs (%.1fx faster, %.1fx fewer allocs)",
		read.Kernel.MsPerOp, read.Kernel.AllocsPerOp, read.PerSample.MsPerOp, read.PerSample.AllocsPerOp,
		read.Speedup, read.AllocsFactor)
	t.Logf("WriteGrid: kernel %.1fms, per-sample %.1fms (%.1fx faster)",
		write.Kernel.MsPerOp, write.PerSample.MsPerOp, write.Speedup)
	t.Logf("wrote %s", outPath)
}
