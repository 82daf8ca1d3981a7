package cache_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/raster"
)

// This file is the cache acceptance harness: it measures the zero-copy
// hit path (must be allocation-free), fetch coalescing under concurrent
// readers (the duplicate-fetch bug this PR fixes), and TinyLFU admission
// under a zipfian+scan mix, then writes BENCH_cache.json. The baseline_*
// numbers embedded below were recorded on this machine against the
// pre-change copying LRU with no coalescing, using byte-identical
// workload shapes, so the JSON is a self-contained before/after record.

// Pre-change baselines (copying LRU, no fill coalescing), recorded
// with the exact harness shapes below: 1024x1024 float32 dataset,
// 2^14-sample blocks (64 blocks), MemBackend with 2ms Get latency,
// GOMAXPROCS=4, fetch parallelism 8.
const (
	baselineColdNsPerOp       = 142669651.0 // 4 readers x 3 full reads, cold cache
	baselineColdBackendGets   = 81          // 64 unique blocks: 17 duplicate fetches
	baselineWarmNsPerOp       = 32027811.0  // same readers, warm cache
	baselineStormNsPerOp      = 2248672.0   // 8 readers x coarse preview, cleared between rounds
	baselineStormGetsPerRound = 23.3        // 4 unique blocks: 5.8x fetch amplification
)

const (
	benchSide       = 1024
	benchBlockBits  = 14
	benchUniqueBlks = 64
)

// delayBackend wraps MemBackend with fixed per-Get latency and an atomic
// Get counter, both armed only after dataset setup so writes stay fast.
type delayBackend struct {
	*idx.MemBackend
	delay time.Duration
	armed atomic.Bool
	gets  atomic.Int64
}

func (d *delayBackend) Get(ctx context.Context, name string) ([]byte, error) {
	if d.armed.Load() {
		d.gets.Add(1)
		time.Sleep(d.delay)
	}
	return d.MemBackend.Get(ctx, name)
}

func newCacheBenchDataset(t *testing.T) (*idx.Dataset, *delayBackend) {
	t.Helper()
	meta, err := idx.NewMeta([]int{benchSide, benchSide}, []idx.Field{{Name: "v", Type: idx.Float32}})
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = benchBlockBits
	be := &delayBackend{MemBackend: idx.NewMemBackend(), delay: 2 * time.Millisecond}
	ds, err := idx.Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	g := raster.New(benchSide, benchSide)
	for i := range g.Data {
		g.Data[i] = float32(i)
	}
	if err := ds.WriteGrid(context.Background(), "v", 0, g); err != nil {
		t.Fatal(err)
	}
	ds.SetFetchParallelism(8)
	be.armed.Store(true)
	return ds, be
}

// readFull runs one full-resolution ReadBox and fails the test on error.
func readFull(t *testing.T, ds *idx.Dataset, level int) {
	t.Helper()
	if _, _, err := ds.ReadBox(context.Background(), "v", 0, ds.FullBox(), level); err != nil {
		t.Fatal(err)
	}
}

// concurrently runs fn from n goroutines with a start barrier and waits.
func concurrently(n int, fn func(i int)) time.Duration {
	var start, wg sync.WaitGroup
	start.Add(1)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			start.Wait()
			fn(i)
		}(i)
	}
	t0 := time.Now()
	start.Done()
	wg.Wait()
	return time.Since(t0)
}

func TestBenchCacheEmit(t *testing.T) {
	iters, _ := strconv.Atoi(os.Getenv("NSDF_BENCH_CACHE_ITERS"))
	if iters <= 0 {
		t.Skip("set NSDF_BENCH_CACHE_ITERS>=1 to run the cache benchmark emitter")
	}
	smoke := iters == 1
	outPath := os.Getenv("NSDF_BENCH_CACHE_OUT")
	if outPath == "" {
		outPath = t.TempDir() + "/BENCH_cache.json"
	}
	prev := runtime.GOMAXPROCS(4) // concurrency results must not depend on the host's core count
	defer runtime.GOMAXPROCS(prev)

	// --- Hit path: Get on a resident block must not allocate or copy. ---
	hc := cache.NewMemTiered(1 << 20)
	hc.Put("key", make([]byte, 64<<10))
	hitN := 200000
	if smoke {
		hitN = 1000
	}
	for i := 0; i < 1000; i++ { // warm-up
		hc.Get("key")
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < hitN; i++ {
		hc.Get("key")
	}
	hitNs := float64(time.Since(t0).Nanoseconds()) / float64(hitN)
	runtime.ReadMemStats(&after)
	hitAllocs := float64(after.Mallocs-before.Mallocs) / float64(hitN)

	parElapsed := concurrently(4, func(int) {
		for i := 0; i < hitN/4; i++ {
			hc.Get("key")
		}
	})
	parHitNs := float64(parElapsed.Nanoseconds()) / float64(hitN)

	// --- Concurrent full reads: cold then warm, 4 readers. ---
	ds, be := newCacheBenchDataset(t)
	c := cache.NewMemTiered(256 << 20)
	ds.SetCache(c)
	level := ds.Meta.MaxLevel()
	coldIters, warmIters := 3, 10
	if smoke {
		coldIters, warmIters = 1, 1
	}
	be.gets.Store(0)
	coldElapsed := concurrently(4, func(int) {
		for i := 0; i < coldIters; i++ {
			readFull(t, ds, level)
		}
	})
	coldNs := float64(coldElapsed.Nanoseconds()) / float64(4*coldIters)
	coldGets := be.gets.Load()

	be.gets.Store(0)
	warmElapsed := concurrently(4, func(int) {
		for i := 0; i < warmIters; i++ {
			readFull(t, ds, level)
		}
	})
	warmNs := float64(warmElapsed.Nanoseconds()) / float64(4*warmIters)
	warmGets := be.gets.Load()

	// --- Preview storm: 8 readers racing a coarse preview on a cold
	// cache, repeated with the cache cleared between rounds. This is the
	// duplicate-fetch reproduction: pre-change, 8 readers fetched the 4
	// coarse blocks 23.3 times per round. ---
	rounds := 10 * iters
	if smoke {
		rounds = 2
	}
	coarse := level - 4
	statsBefore := c.Stats()
	be.gets.Store(0)
	var stormElapsed time.Duration
	for r := 0; r < rounds; r++ {
		c.Clear()
		stormElapsed += concurrently(8, func(int) {
			readFull(t, ds, coarse)
		})
	}
	stormNs := float64(stormElapsed.Nanoseconds()) / float64(8*rounds)
	stormGetsPerRound := float64(be.gets.Load()) / float64(rounds)
	stormCoalesced := c.Stats().Coalesced - statsBefore.Coalesced

	// --- Admission A/B: zipfian working set plus a cold sequential scan,
	// on a cache holding ~25% of the hot keys. TinyLFU admission should
	// keep the scan from flushing the hot set. ---
	admSteps := 40000
	if smoke {
		admSteps = 2000
	}
	runAdmission := func(opts cache.Options) cache.Stats {
		ac, err := cache.NewTiered(opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(rng, 1.2, 1, 1023)
		payload := func() []byte { return make([]byte, 4096) }
		scanNext := 0
		for i := 0; i < admSteps; i++ {
			var key string
			if i%10 == 9 { // every 10th access is a cold scan key
				key = "scan" + strconv.Itoa(scanNext)
				scanNext++
			} else {
				key = "hot" + strconv.FormatUint(zipf.Uint64(), 10)
			}
			if _, _, err := ac.GetOrFill(context.Background(), key, func(context.Context) ([]byte, error) {
				return payload(), nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		return ac.Stats()
	}
	admStats := runAdmission(cache.Options{MemBytes: 1 << 20}) // 256 x 4KiB entries
	noAdmStats := runAdmission(cache.Options{MemBytes: 1 << 20, NoAdmission: true})

	doc := struct {
		Description string `json:"description"`
		Dataset     string `json:"dataset"`
		GOMAXPROCS  int    `json:"gomaxprocs"`
		Iters       int    `json:"iterations"`
		HitPath     struct {
			NsPerOp          float64 `json:"ns_per_op"`
			AllocsPerOp      float64 `json:"allocs_per_op"`
			Parallel4NsPerOp float64 `json:"parallel4_ns_per_op"`
		} `json:"hit_path"`
		ConcurrentRead struct {
			ColdNsPerOp         float64 `json:"cold_ns_per_op"`
			BaselineColdNsPerOp float64 `json:"baseline_cold_ns_per_op"`
			ColdBackendGets     int64   `json:"cold_backend_gets"`
			BaselineColdGets    int64   `json:"baseline_cold_backend_gets"`
			UniqueBlocks        int     `json:"unique_blocks"`
			WarmNsPerOp         float64 `json:"warm_ns_per_op"`
			BaselineWarmNsPerOp float64 `json:"baseline_warm_ns_per_op"`
			WarmBackendGets     int64   `json:"warm_backend_gets"`
		} `json:"concurrent_read"`
		PreviewStorm struct {
			NsPerOp              float64 `json:"ns_per_op"`
			BaselineNsPerOp      float64 `json:"baseline_ns_per_op"`
			GetsPerRound         float64 `json:"gets_per_round"`
			BaselineGetsPerRound float64 `json:"baseline_gets_per_round"`
			CoalescedFetches     int64   `json:"coalesced_fetches"`
			Readers              int     `json:"readers"`
			Rounds               int     `json:"rounds"`
		} `json:"preview_storm"`
		Admission struct {
			HitRate          float64 `json:"zipf_scan_hit_rate"`
			NoAdmissionRate  float64 `json:"zipf_scan_hit_rate_no_admission"`
			AdmissionRejects int64   `json:"admission_rejects"`
			Steps            int     `json:"steps"`
		} `json:"admission"`
	}{
		Description: "Tiered block cache: zero-copy hit path, fetch coalescing under concurrent readers, and TinyLFU admission vs plain LRU. baseline_* fields were recorded pre-change (copying LRU, no coalescing) with identical workload shapes. Regenerate with `make bench-cache`.",
		Dataset:     "1024x1024 float32, 2^14-sample blocks (64 blocks), MemBackend with 2ms Get latency, fetch parallelism 8",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Iters:       iters,
	}
	doc.HitPath.NsPerOp = hitNs
	doc.HitPath.AllocsPerOp = hitAllocs
	doc.HitPath.Parallel4NsPerOp = parHitNs
	doc.ConcurrentRead.ColdNsPerOp = coldNs
	doc.ConcurrentRead.BaselineColdNsPerOp = baselineColdNsPerOp
	doc.ConcurrentRead.ColdBackendGets = coldGets
	doc.ConcurrentRead.BaselineColdGets = baselineColdBackendGets
	doc.ConcurrentRead.UniqueBlocks = benchUniqueBlks
	doc.ConcurrentRead.WarmNsPerOp = warmNs
	doc.ConcurrentRead.BaselineWarmNsPerOp = baselineWarmNsPerOp
	doc.ConcurrentRead.WarmBackendGets = warmGets
	doc.PreviewStorm.NsPerOp = stormNs
	doc.PreviewStorm.BaselineNsPerOp = baselineStormNsPerOp
	doc.PreviewStorm.GetsPerRound = stormGetsPerRound
	doc.PreviewStorm.BaselineGetsPerRound = baselineStormGetsPerRound
	doc.PreviewStorm.CoalescedFetches = stormCoalesced
	doc.PreviewStorm.Readers = 8
	doc.PreviewStorm.Rounds = rounds
	doc.Admission.HitRate = admStats.HitRate()
	doc.Admission.NoAdmissionRate = noAdmStats.HitRate()
	doc.Admission.AdmissionRejects = admStats.AdmissionRejects
	doc.Admission.Steps = admSteps

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("hit path %.1fns/op (%.2f allocs), cold %d gets for %d blocks, storm %.1f gets/round (baseline %.1f), admission hit rate %.3f vs %.3f without",
		hitNs, hitAllocs, coldGets, benchUniqueBlks, stormGetsPerRound, baselineStormGetsPerRound,
		admStats.HitRate(), noAdmStats.HitRate())
	t.Logf("wrote %s", outPath)

	// Acceptance gates (skipped in smoke mode, where shapes are truncated).
	if hitAllocs != 0 {
		t.Errorf("cache-hit path allocates %.2f per op, want 0", hitAllocs)
	}
	if !smoke {
		if warmGets != 0 {
			t.Errorf("warm phase hit the backend %d times, want 0", warmGets)
		}
		if stormGetsPerRound >= baselineStormGetsPerRound {
			t.Errorf("preview storm still amplifies fetches: %.1f gets/round (pre-change %.1f)",
				stormGetsPerRound, baselineStormGetsPerRound)
		}
	}
}
