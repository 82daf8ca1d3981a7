package shard_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nsdfgo/internal/shard"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
)

// This file is the sharding acceptance harness behind `make bench-shard`
// and BENCH_shard.json. It proves the two perf claims of the sharded
// tier: (1) aggregate cold-read throughput scales with node count,
// because each simulated node owns an independent link; (2) hedged
// reads cut p99 latency under a heavy-tailed storage.Conditioned
// profile while costing <5% extra backend Gets. A third section pins
// the failure semantics: reads ride through a node loss on replicas.

// linkNode simulates one storage node with a capacity-constrained link:
// transfers serialize on a mutex and sleep RTT plus bytes/bandwidth, so
// a node's aggregate throughput is bounded no matter how many clients
// pile on — the property that makes node count the scaling knob.
// Delays arm only after setup so dataset writes stay fast.
type linkNode struct {
	inner *storage.MemStore
	rtt   time.Duration
	bps   float64

	mu    sync.Mutex
	armed atomic.Bool
	gets  atomic.Int64
}

func (n *linkNode) transfer(ctx context.Context, bytes int) error {
	if !n.armed.Load() {
		return ctx.Err()
	}
	d := n.rtt + time.Duration(float64(bytes)/n.bps*float64(time.Second))
	n.mu.Lock()
	defer n.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (n *linkNode) Get(ctx context.Context, key string) ([]byte, error) {
	n.gets.Add(1)
	data, err := n.inner.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	if err := n.transfer(ctx, len(data)); err != nil {
		return nil, err
	}
	return data, nil
}

func (n *linkNode) Put(ctx context.Context, key string, data []byte) error {
	if err := n.transfer(ctx, len(data)); err != nil {
		return err
	}
	return n.inner.Put(ctx, key, data)
}

func (n *linkNode) Delete(ctx context.Context, key string) error {
	return n.inner.Delete(ctx, key)
}

func (n *linkNode) Stat(ctx context.Context, key string) (storage.ObjectInfo, error) {
	return n.inner.Stat(ctx, key)
}

func (n *linkNode) List(ctx context.Context, prefix string) ([]storage.ObjectInfo, error) {
	return n.inner.List(ctx, prefix)
}

// countingStore counts Gets through to an inner store, for measuring
// hedging's extra backend load.
type countingStore struct {
	storage.Store
	gets atomic.Int64
}

func (c *countingStore) Get(ctx context.Context, key string) ([]byte, error) {
	c.gets.Add(1)
	return c.Store.Get(ctx, key)
}

func benchKey(i int) string { return fmt.Sprintf("blocks/v/0/%06d", i) }

// runScaling measures aggregate cold-read throughput over nodeCount
// link-limited nodes.
func runScaling(t *testing.T, nodeCount, keys, objectBytes, readers int) (mbPerS float64, elapsed time.Duration) {
	t.Helper()
	links := make([]*linkNode, nodeCount)
	nodes := make([]shard.Node, nodeCount)
	for i := range nodes {
		links[i] = &linkNode{inner: storage.NewMemStore(), rtt: 100 * time.Microsecond, bps: 100 << 20}
		nodes[i] = shard.Node{Name: fmt.Sprintf("n%d", i), Store: links[i]}
	}
	replicas := 2
	if replicas > nodeCount {
		replicas = nodeCount
	}
	r, err := shard.NewRouter(nodes, shard.Options{Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := make([]byte, objectBytes)
	for i := 0; i < keys; i++ {
		if err := r.Put(ctx, benchKey(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range links {
		l.armed.Store(true)
	}

	var start, wg sync.WaitGroup
	start.Add(1)
	wg.Add(readers)
	perReader := keys / readers
	for w := 0; w < readers; w++ {
		go func(w int) {
			defer wg.Done()
			start.Wait()
			for i := w * perReader; i < (w+1)*perReader; i++ {
				if _, err := r.Get(ctx, benchKey(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	t0 := time.Now()
	start.Done()
	wg.Wait()
	elapsed = time.Since(t0)
	totalMB := float64(keys*objectBytes) / (1 << 20)
	return totalMB / elapsed.Seconds(), elapsed
}

// tailCluster builds nodeCount heavy-tail Conditioned nodes over shared
// counting wrappers, pre-populated with keys.
func tailCluster(t *testing.T, nodeCount, keys, objectBytes int, hedgeAfter time.Duration, profile storage.NetworkProfile) (*shard.Router, []*countingStore, *telemetry.Registry) {
	t.Helper()
	counters := make([]*countingStore, nodeCount)
	nodes := make([]shard.Node, nodeCount)
	for i := range nodes {
		counters[i] = &countingStore{Store: storage.NewMemStore()}
		cond := storage.NewConditioned(counters[i], profile, int64(1000+i))
		nodes[i] = shard.Node{Name: fmt.Sprintf("n%d", i), Store: cond}
	}
	r, err := shard.NewRouter(nodes, shard.Options{Replicas: 2, HedgeAfter: hedgeAfter})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	r.Instrument(reg)
	ctx := context.Background()
	payload := make([]byte, objectBytes)
	for i := 0; i < keys; i++ {
		if err := r.Put(ctx, benchKey(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Reset counters so the measured phase sees only reads.
	for _, c := range counters {
		c.gets.Store(0)
	}
	return r, counters, reg
}

// measureLatencies runs n sequential Gets of random keys and returns
// the sorted per-op latencies plus total backend Gets.
func measureLatencies(t *testing.T, r *shard.Router, counters []*countingStore, keys, n int) ([]time.Duration, int64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	lats := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		key := benchKey(rng.Intn(keys))
		t0 := time.Now()
		if _, err := r.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
		lats[i] = time.Since(t0)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var gets int64
	for _, c := range counters {
		gets += c.gets.Load()
	}
	return lats, gets
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func TestBenchShardEmit(t *testing.T) {
	iters, _ := strconv.Atoi(os.Getenv("NSDF_BENCH_SHARD_ITERS"))
	if iters <= 0 {
		t.Skip("set NSDF_BENCH_SHARD_ITERS>=1 to run the shard benchmark emitter")
	}
	smoke := iters == 1
	outPath := os.Getenv("NSDF_BENCH_SHARD_OUT")
	if outPath == "" {
		outPath = t.TempDir() + "/BENCH_shard.json"
	}
	prev := runtime.GOMAXPROCS(4) // results must not depend on the host's core count
	defer runtime.GOMAXPROCS(prev)

	// --- Throughput scaling: N=1/2/4 nodes, each a 100 MiB/s link. ---
	scaleKeys, objectBytes, readers := 256, 64<<10, 16
	if smoke {
		scaleKeys = 32
	}
	type scalePoint struct {
		Nodes      int     `json:"nodes"`
		Replicas   int     `json:"replicas"`
		MBPerS     float64 `json:"aggregate_mb_per_s"`
		ElapsedMs  float64 `json:"elapsed_ms"`
		SpeedupVs1 float64 `json:"speedup_vs_1_node"`
	}
	var points []scalePoint
	scaleIters := iters
	if scaleIters > 3 {
		scaleIters = 3 // best-of-3 settles; more just burns wall clock on the N=1 run
	}
	for _, n := range []int{1, 2, 4} {
		var best float64
		var bestElapsed time.Duration
		for it := 0; it < scaleIters; it++ {
			mbps, elapsed := runScaling(t, n, scaleKeys, objectBytes, readers)
			if mbps > best {
				best, bestElapsed = mbps, elapsed
			}
		}
		replicas := 2
		if replicas > n {
			replicas = n
		}
		points = append(points, scalePoint{Nodes: n, Replicas: replicas, MBPerS: best, ElapsedMs: float64(bestElapsed.Nanoseconds()) / 1e6})
	}
	for i := range points {
		points[i].SpeedupVs1 = points[i].MBPerS / points[0].MBPerS
	}
	scaling4x := points[len(points)-1].SpeedupVs1

	// --- Hedged vs unhedged p99 under a heavy-tail Conditioned profile.
	// The profile is a regional link with a heavy tail: 1ms RTT, 2% chance
	// of a 10ms spike. The scale is deliberately no finer — this host's
	// timers have a ~1ms granularity floor, so sub-millisecond RTTs would
	// blur the hedge threshold. The hedge fires at 3ms: above every
	// normal response (~1.3ms wall), below every spike (~11ms). ---
	tailProfile := storage.NetworkProfile{
		RTT:          1 * time.Millisecond,
		BandwidthBps: 1 << 30,
		Jitter:       200 * time.Microsecond,
		TailProb:     0.02,
		TailSpike:    10 * time.Millisecond,
	}
	hedgeAfter := 3 * time.Millisecond
	tailKeys := 128
	gets := 500 * iters
	if smoke {
		gets = 100
	}

	unhedgedRouter, unhedgedCounters, _ := tailCluster(t, 4, tailKeys, 16<<10, 0, tailProfile)
	unhedgedLats, unhedgedGets := measureLatencies(t, unhedgedRouter, unhedgedCounters, tailKeys, gets)

	hedgedRouter, hedgedCounters, hedgedReg := tailCluster(t, 4, tailKeys, 16<<10, hedgeAfter, tailProfile)
	hedgedLats, hedgedGets := measureLatencies(t, hedgedRouter, hedgedCounters, tailKeys, gets)

	up50, up99 := quantile(unhedgedLats, 0.50), quantile(unhedgedLats, 0.99)
	hp50, hp99 := quantile(hedgedLats, 0.50), quantile(hedgedLats, 0.99)
	p99Cut := 1 - float64(hp99)/float64(up99)
	extraGets := float64(hedgedGets-int64(gets)) / float64(gets)
	hedgesFired := hedgedReg.Counter("nsdf_shard_hedges_fired_total").Value()
	hedgesWon := hedgedReg.Counter("nsdf_shard_hedges_won_total").Value()

	// --- Node loss: kill one of 4 nodes, read every key; replicas must
	// cover all of them. Reuses the hedged cluster. ---
	r, flips, reg := newTestCluster(t, 4, shard.Options{Replicas: 2})
	ctx := context.Background()
	for i := 0; i < tailKeys; i++ {
		if err := r.Put(ctx, benchKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	flips[2].down.Store(true)
	lossOK := true
	for i := 0; i < tailKeys; i++ {
		if _, err := r.Get(ctx, benchKey(i)); err != nil {
			lossOK = false
			t.Errorf("read of %s failed with one node down: %v", benchKey(i), err)
		}
	}
	failovers := reg.Counter("nsdf_shard_replica_failovers_total").Value()

	doc := struct {
		Description string `json:"description"`
		GOMAXPROCS  int    `json:"gomaxprocs"`
		Iters       int    `json:"iterations"`
		Scaling     struct {
			ObjectKiB int          `json:"object_kib"`
			Keys      int          `json:"keys"`
			Readers   int          `json:"readers"`
			NodeLink  string       `json:"node_link"`
			Points    []scalePoint `json:"points"`
		} `json:"scaling"`
		Hedging struct {
			Profile         string  `json:"profile"`
			HedgeAfterUs    float64 `json:"hedge_after_us"`
			Gets            int     `json:"gets"`
			UnhedgedP50Ms   float64 `json:"unhedged_p50_ms"`
			UnhedgedP99Ms   float64 `json:"unhedged_p99_ms"`
			UnhedgedBackend int64   `json:"unhedged_backend_gets"`
			HedgedP50Ms     float64 `json:"hedged_p50_ms"`
			HedgedP99Ms     float64 `json:"hedged_p99_ms"`
			HedgedBackend   int64   `json:"hedged_backend_gets"`
			HedgesFired     int64   `json:"hedges_fired"`
			HedgesWon       int64   `json:"hedges_won"`
			P99CutPct       float64 `json:"p99_cut_pct"`
			ExtraBackendPct float64 `json:"extra_backend_gets_pct"`
		} `json:"hedging"`
		NodeLoss struct {
			Nodes      int   `json:"nodes"`
			Killed     int   `json:"killed"`
			Keys       int   `json:"keys"`
			AllReadsOK bool  `json:"all_reads_succeeded"`
			Failovers  int64 `json:"replica_failovers"`
		} `json:"node_loss"`
	}{
		Description: "Sharded block-serving tier: cold-read throughput scaling across consistent-hash nodes (R=2), hedged-read p99 vs unhedged under a heavy-tail Conditioned profile, and node-loss failover. Regenerate with `make bench-shard`.",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Iters:       iters,
	}
	doc.Scaling.ObjectKiB = objectBytes >> 10
	doc.Scaling.Keys = scaleKeys
	doc.Scaling.Readers = readers
	doc.Scaling.NodeLink = "100 MiB/s serialized link, 100us RTT per node"
	doc.Scaling.Points = points
	doc.Hedging.Profile = "RTT 1ms, jitter 200us, 2% x 10ms tail spikes, 1 GiB/s"
	doc.Hedging.HedgeAfterUs = float64(hedgeAfter.Microseconds())
	doc.Hedging.Gets = gets
	doc.Hedging.UnhedgedP50Ms = float64(up50.Nanoseconds()) / 1e6
	doc.Hedging.UnhedgedP99Ms = float64(up99.Nanoseconds()) / 1e6
	doc.Hedging.UnhedgedBackend = unhedgedGets
	doc.Hedging.HedgedP50Ms = float64(hp50.Nanoseconds()) / 1e6
	doc.Hedging.HedgedP99Ms = float64(hp99.Nanoseconds()) / 1e6
	doc.Hedging.HedgedBackend = hedgedGets
	doc.Hedging.HedgesFired = hedgesFired
	doc.Hedging.HedgesWon = hedgesWon
	doc.Hedging.P99CutPct = 100 * p99Cut
	doc.Hedging.ExtraBackendPct = 100 * extraGets
	doc.NodeLoss.Nodes = 4
	doc.NodeLoss.Killed = 1
	doc.NodeLoss.Keys = tailKeys
	doc.NodeLoss.AllReadsOK = lossOK
	doc.NodeLoss.Failovers = failovers

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("scaling: N=1 %.1f MB/s, N=2 %.1fx, N=4 %.1fx", points[0].MBPerS, points[1].SpeedupVs1, scaling4x)
	t.Logf("hedging: p99 %.2fms -> %.2fms (%.1f%% cut), %d hedges fired / %d won, %.2f%% extra backend gets",
		doc.Hedging.UnhedgedP99Ms, doc.Hedging.HedgedP99Ms, doc.Hedging.P99CutPct, hedgesFired, hedgesWon, doc.Hedging.ExtraBackendPct)
	t.Logf("wrote %s", outPath)

	// Acceptance gates (skipped in smoke mode, where shapes are truncated).
	if !smoke {
		if scaling4x < 2.0 {
			t.Errorf("N=4 aggregate throughput is %.2fx of N=1, want >= 2x", scaling4x)
		}
		if p99Cut < 0.30 {
			t.Errorf("hedging cut p99 by %.1f%%, want >= 30%%", 100*p99Cut)
		}
		if extraGets >= 0.05 {
			t.Errorf("hedging cost %.2f%% extra backend gets, want < 5%%", 100*extraGets)
		}
		if !lossOK {
			t.Error("reads did not ride through a node loss")
		}
	}
}
