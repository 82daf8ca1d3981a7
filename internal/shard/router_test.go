package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nsdfgo/internal/idx"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/shard"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
)

// flipStore is a storage.Store whose node can be killed and revived
// atomically, for failover and stress tests.
type flipStore struct {
	inner storage.Store
	down  atomic.Bool
}

var errNodeDown = errors.New("shard_test: node down")

func (f *flipStore) check() error {
	if f.down.Load() {
		return errNodeDown
	}
	return nil
}

func (f *flipStore) Put(ctx context.Context, key string, data []byte) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Put(ctx, key, data)
}

func (f *flipStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.inner.Get(ctx, key)
}

func (f *flipStore) Delete(ctx context.Context, key string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Delete(ctx, key)
}

func (f *flipStore) Stat(ctx context.Context, key string) (storage.ObjectInfo, error) {
	if err := f.check(); err != nil {
		return storage.ObjectInfo{}, err
	}
	return f.inner.Stat(ctx, key)
}

func (f *flipStore) List(ctx context.Context, prefix string) ([]storage.ObjectInfo, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.inner.List(ctx, prefix)
}

// slowStore delays every Get by a fixed amount (honouring ctx), for
// hedging tests.
type slowStore struct {
	storage.Store
	delay time.Duration
	gets  atomic.Int64
}

func (s *slowStore) Get(ctx context.Context, key string) ([]byte, error) {
	s.gets.Add(1)
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.C:
	}
	return s.Store.Get(ctx, key)
}

// newTestCluster builds n flipStore-backed nodes and a router over them.
func newTestCluster(t *testing.T, n int, opts shard.Options) (*shard.Router, []*flipStore, *telemetry.Registry) {
	t.Helper()
	flips := make([]*flipStore, n)
	nodes := make([]shard.Node, n)
	for i := range nodes {
		flips[i] = &flipStore{inner: storage.NewMemStore()}
		nodes[i] = shard.Node{Name: fmt.Sprintf("n%d", i), Store: flips[i]}
	}
	r, err := shard.NewRouter(nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	r.Instrument(reg)
	return r, flips, reg
}

func counter(reg *telemetry.Registry, name string, labels ...string) int64 {
	return reg.Counter(name, labels...).Value()
}

func TestRouterRoundTripAndReplication(t *testing.T) {
	r, flips, _ := newTestCluster(t, 4, shard.Options{Replicas: 2})
	ctx := context.Background()
	const K = 100
	for i := 0; i < K; i++ {
		key := fmt.Sprintf("blocks/%03d", i)
		if err := r.Put(ctx, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < K; i++ {
		key := fmt.Sprintf("blocks/%03d", i)
		data, err := r.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != key {
			t.Fatalf("Get(%q) = %q", key, data)
		}
		// Exactly R nodes hold each key.
		holders := 0
		for _, f := range flips {
			if _, err := f.inner.Stat(ctx, key); err == nil {
				holders++
			}
		}
		if holders != 2 {
			t.Fatalf("key %q is on %d nodes, want R=2", key, holders)
		}
	}
	// The spread should use all nodes.
	listed, err := r.List(ctx, "blocks/")
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != K {
		t.Fatalf("List merged to %d keys, want %d", len(listed), K)
	}
	for _, f := range flips {
		infos, err := f.inner.List(ctx, "blocks/")
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) == 0 {
			t.Fatal("a node owns no keys; ring distribution is broken")
		}
	}
}

func TestRouterMissingKey(t *testing.T) {
	r, _, reg := newTestCluster(t, 3, shard.Options{Replicas: 2})
	ctx := context.Background()
	if _, err := r.Get(ctx, "absent"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("Get(absent) = %v, want ErrNotExist", err)
	}
	if _, err := r.Stat(ctx, "absent"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("Stat(absent) = %v, want ErrNotExist", err)
	}
	if got := counter(reg, "nsdf_shard_replica_failovers_total"); got != 0 {
		t.Fatalf("a clean miss booked %d failovers, want 0", got)
	}
}

// TestRouterFailoverOnNodeLoss is the node-loss pin: kill a key's
// primary, and the read must come back from the replica with
// nsdf_shard_replica_failovers_total incrementing and the node_up gauge
// dropping to 0.
func TestRouterFailoverOnNodeLoss(t *testing.T) {
	r, flips, reg := newTestCluster(t, 4, shard.Options{Replicas: 2})
	ctx := context.Background()
	const K = 40
	for i := 0; i < K; i++ {
		key := fmt.Sprintf("blocks/%03d", i)
		if err := r.Put(ctx, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	// Kill node n1 and read everything back.
	flips[1].down.Store(true)
	before := counter(reg, "nsdf_shard_replica_failovers_total")
	primaries := 0
	for i := 0; i < K; i++ {
		key := fmt.Sprintf("blocks/%03d", i)
		if r.Ring().Primary(key) == "n1" {
			primaries++
		}
		data, err := r.Get(ctx, key)
		if err != nil {
			t.Fatalf("Get(%q) with n1 down: %v", key, err)
		}
		if string(data) != key {
			t.Fatalf("Get(%q) = %q", key, data)
		}
	}
	if primaries == 0 {
		t.Fatal("no key had n1 as primary; test exercises nothing")
	}
	failovers := counter(reg, "nsdf_shard_replica_failovers_total") - before
	if failovers < int64(primaries) {
		t.Fatalf("%d keys had the dead node as primary but only %d failovers were counted", primaries, failovers)
	}
	if up := reg.Gauge("nsdf_shard_node_up", "node", "n1").Value(); up != 0 {
		t.Fatalf("nsdf_shard_node_up{node=n1} = %v after failures, want 0", up)
	}
	if up := reg.Gauge("nsdf_shard_node_up", "node", "n0").Value(); up != 1 {
		t.Fatalf("nsdf_shard_node_up{node=n0} = %v, want 1", up)
	}
}

// TestRouterDegradedWrite: a write with a dead replica succeeds on the
// survivors and books the loss in the failover counter; once every
// replica is dead it errors.
func TestRouterDegradedWrite(t *testing.T) {
	r, flips, reg := newTestCluster(t, 2, shard.Options{Replicas: 2})
	ctx := context.Background()
	flips[1].down.Store(true)
	before := counter(reg, "nsdf_shard_replica_failovers_total")
	if err := r.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("degraded Put: %v", err)
	}
	if got := counter(reg, "nsdf_shard_replica_failovers_total") - before; got != 1 {
		t.Fatalf("degraded Put booked %d failovers, want 1", got)
	}
	if data, err := r.Get(ctx, "k"); err != nil || string(data) != "v" {
		t.Fatalf("Get after degraded Put = %q, %v", data, err)
	}
	flips[0].down.Store(true)
	if err := r.Put(ctx, "k2", []byte("v")); err == nil {
		t.Fatal("Put with every replica dead succeeded")
	}
	if _, err := r.Get(ctx, "k"); err == nil {
		t.Fatal("Get with every replica dead succeeded")
	}
}

// TestRouterHedgedRead: a slow primary is beaten by the hedge fired at
// the replica, the caller sees the fast response, and the
// hedges_fired/hedges_won counters tick.
func TestRouterHedgedRead(t *testing.T) {
	mem := storage.NewMemStore()
	ctx := context.Background()
	if err := mem.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	slow := &slowStore{Store: mem, delay: 300 * time.Millisecond}
	fast := &slowStore{Store: mem, delay: 0}
	// Both nodes share the same MemStore, so whichever the ring picks as
	// primary, the other replica can serve the hedge.
	r, err := shard.NewRouter([]shard.Node{{Name: "slow", Store: slow}, {Name: "fast", Store: fast}},
		shard.Options{Replicas: 2, HedgeAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	r.Instrument(reg)

	// Find a key whose primary is the slow node so the hedge is what
	// saves the read.
	key := "k"
	for i := 0; ; i++ {
		key = fmt.Sprintf("k%d", i)
		if r.Ring().Primary(key) == "slow" {
			break
		}
	}
	if err := mem.Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	data, err := r.Get(ctx, key)
	elapsed := time.Since(t0)
	if err != nil || string(data) != "v" {
		t.Fatalf("hedged Get = %q, %v", data, err)
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("hedged Get took %v; the slow primary was not beaten", elapsed)
	}
	if got := counter(reg, "nsdf_shard_hedges_fired_total"); got != 1 {
		t.Fatalf("hedges_fired = %d, want 1", got)
	}
	if got := counter(reg, "nsdf_shard_hedges_won_total"); got != 1 {
		t.Fatalf("hedges_won = %d, want 1", got)
	}
	if got := counter(reg, "nsdf_shard_replica_failovers_total"); got != 0 {
		t.Fatalf("a won hedge booked %d failovers, want 0", got)
	}
}

// TestRouterHedgeNotFiredWhenFast: a fast primary answers before the
// hedge delay, so no extra backend load is generated.
func TestRouterHedgeNotFiredWhenFast(t *testing.T) {
	mem := storage.NewMemStore()
	ctx := context.Background()
	a := &slowStore{Store: mem, delay: 0}
	b := &slowStore{Store: mem, delay: 0}
	r, err := shard.NewRouter([]shard.Node{{Name: "a", Store: a}, {Name: "b", Store: b}},
		shard.Options{Replicas: 2, HedgeAfter: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	r.Instrument(reg)
	if err := mem.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := r.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	if fired := counter(reg, "nsdf_shard_hedges_fired_total"); fired != 0 {
		t.Fatalf("fast reads fired %d hedges, want 0", fired)
	}
	if total := a.gets.Load() + b.gets.Load(); total != 20 {
		t.Fatalf("20 routed Gets hit the backends %d times, want exactly 20", total)
	}
}

// TestRouterGetCancellation: a cancelled caller aborts promptly even
// with a slow node, returning ctx.Err.
func TestRouterGetCancellation(t *testing.T) {
	mem := storage.NewMemStore()
	if err := mem.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	slow := &slowStore{Store: mem, delay: 5 * time.Second}
	r, err := shard.NewRouter([]shard.Node{{Name: "a", Store: slow}}, shard.Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	if _, err := r.Get(ctx, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled Get = %v, want DeadlineExceeded", err)
	}
	if time.Since(t0) > time.Second {
		t.Fatalf("cancelled Get took %v; did not abort promptly", time.Since(t0))
	}
}

// TestRouterListDegradation: listings survive up to R-1 node losses
// (replication keeps them complete) and refuse to return silently
// partial results beyond that.
func TestRouterListDegradation(t *testing.T) {
	r, flips, _ := newTestCluster(t, 4, shard.Options{Replicas: 2})
	ctx := context.Background()
	const K = 50
	for i := 0; i < K; i++ {
		if err := r.Put(ctx, fmt.Sprintf("blocks/%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	flips[2].down.Store(true)
	listed, err := r.List(ctx, "blocks/")
	if err != nil {
		t.Fatalf("List with 1 of 4 nodes down: %v", err)
	}
	if len(listed) != K {
		t.Fatalf("List with a dead node returned %d keys, want the full %d (replicas cover the loss)", len(listed), K)
	}
	flips[3].down.Store(true)
	if _, err := r.List(ctx, "blocks/"); err == nil {
		t.Fatal("List with R nodes down succeeded; it can silently lose keys and must error")
	}
}

// TestRouterDeleteReplicas: delete removes the key from every replica.
func TestRouterDeleteReplicas(t *testing.T) {
	r, flips, _ := newTestCluster(t, 3, shard.Options{Replicas: 2})
	ctx := context.Background()
	if err := r.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	for i, f := range flips {
		if _, err := f.inner.Stat(ctx, "k"); err == nil {
			t.Fatalf("node %d still holds deleted key", i)
		}
	}
	if _, err := r.Get(ctx, "k"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("Get after Delete = %v, want ErrNotExist", err)
	}
}

// TestRouterPartialWriteProbe: a key written while one replica was down
// must still be readable when that replica comes back (primary misses,
// replica probe finds it).
func TestRouterPartialWriteProbe(t *testing.T) {
	r, flips, _ := newTestCluster(t, 2, shard.Options{Replicas: 2})
	ctx := context.Background()
	key := "k"
	primary := r.Ring().Primary(key)
	// Kill the primary during the write, then revive it: the key now
	// lives only on the secondary.
	for i, f := range flips {
		if fmt.Sprintf("n%d", i) == primary {
			f.down.Store(true)
		}
	}
	if err := r.Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, f := range flips {
		f.down.Store(false)
	}
	data, err := r.Get(ctx, key)
	if err != nil || string(data) != "v" {
		t.Fatalf("Get of partially-written key = %q, %v", data, err)
	}
}

// TestRouterStress hammers the router from concurrent readers while a
// node flaps and writers refresh keys — run under -race by `make race`,
// this is the concurrency pin for the fan-out/hedge/failover paths.
func TestRouterStress(t *testing.T) {
	r, flips, reg := newTestCluster(t, 4, shard.Options{Replicas: 2, HedgeAfter: 200 * time.Microsecond})
	ctx := context.Background()
	const K = 64
	key := func(i int) string { return fmt.Sprintf("blocks/%03d", i%K) }
	for i := 0; i < K; i++ {
		if err := r.Put(ctx, key(i), []byte(key(i))); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		for !stop.Load() {
			flips[1].down.Store(true)
			time.Sleep(500 * time.Microsecond)
			flips[1].down.Store(false)
			time.Sleep(500 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				k := key(rng.Intn(K))
				if w < 2 && i%10 == 9 { // two writers refresh keys
					if err := r.Put(ctx, k, []byte(k)); err != nil {
						errCh <- fmt.Errorf("put %s: %w", k, err)
						return
					}
					continue
				}
				data, err := r.Get(ctx, k)
				if err != nil {
					errCh <- fmt.Errorf("get %s: %w", k, err)
					return
				}
				if string(data) != k {
					errCh <- fmt.Errorf("get %s returned %q", k, data)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	flapper.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if gets := counter(reg, "nsdf_shard_gets_total"); gets == 0 {
		t.Fatal("stress run recorded no shard gets")
	}
}

// TestRouterServesIDXDataset proves the transparency claim end to end:
// the router drops under storage.Instrumented and storage.NewIDXBackend
// unchanged, an IDX dataset round-trips through it, and reads keep
// working after a node loss.
func TestRouterServesIDXDataset(t *testing.T) {
	r, flips, _ := newTestCluster(t, 3, shard.Options{Replicas: 2})
	reg := telemetry.NewRegistry()
	store := storage.NewInstrumented(r, reg, "shard")
	be := storage.NewIDXBackend(store, "datasets/demo")
	ctx := context.Background()

	meta, err := idx.NewMeta([]int{128, 64}, []idx.Field{{Name: "v", Type: idx.Float32}})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := idx.Create(ctx, be, meta)
	if err != nil {
		t.Fatal(err)
	}
	g := raster.New(128, 64)
	for i := range g.Data {
		g.Data[i] = float32(i)
	}
	if err := ds.WriteGrid(ctx, "v", 0, g); err != nil {
		t.Fatal(err)
	}
	verify := func(when string) {
		got, _, err := ds.ReadFull(ctx, "v", 0)
		if err != nil {
			t.Fatalf("%s: ReadFull: %v", when, err)
		}
		for i := range g.Data {
			if got.Data[i] != g.Data[i] {
				t.Fatalf("%s: sample %d = %v, want %v", when, i, got.Data[i], g.Data[i])
			}
		}
	}
	verify("all nodes up")
	flips[0].down.Store(true)
	verify("node n0 down")
	if gets := counter(reg, "nsdf_storage_ops_total", "backend", "shard", "op", "get"); gets == 0 {
		t.Fatal("instrumented wrapper saw no gets; layering is broken")
	}
}

func TestParsePeers(t *testing.T) {
	dial := func(target string) storage.Store { return storage.NewClient(target, "") }
	nodes, err := shard.ParsePeers("a=http://h1:9000, b=http://h2:9000", dial)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Name != "a" || nodes[1].Name != "b" {
		t.Fatalf("ParsePeers = %+v", nodes)
	}
	if nodes[0].Store == nil || nodes[1].Store == nil {
		t.Fatal("ParsePeers returned nil stores")
	}
	if got, err := shard.ParsePeers("", dial); err != nil || len(got) != 0 {
		t.Fatalf("empty spec = %v, %v", got, err)
	}
	if _, err := shard.ParsePeers("justaurl", dial); err == nil {
		t.Fatal("missing name= accepted")
	}
	if _, err := shard.ParsePeers("=http://h", dial); err == nil {
		t.Fatal("empty name accepted")
	}
	// A repeated name is refused by both readers of the spec, with the
	// same error: PeerTargets used to keep the last target silently, so
	// federation queried one URL while the ring refused to start.
	_, ringErr := shard.ParsePeers("a=http://x,a=http://y", dial)
	_, fedErr := shard.PeerTargets("a=http://x,a=http://y")
	if ringErr == nil || fedErr == nil || ringErr.Error() != fedErr.Error() {
		t.Fatalf("duplicate name: ParsePeers err %v, PeerTargets err %v", ringErr, fedErr)
	}
}

// FuzzParsePeers: the peer-spec parser never panics, its two exported
// readers accept exactly the same specs, and an accepted spec
// re-rendered as name=target,... parses to the same pairs in the same
// order with no name repeated.
func FuzzParsePeers(f *testing.F) {
	for _, seed := range []string{"", "a=http://h1:9000, b=http://h2:9000", "a=x,a=y", "justaurl", "=x", "a=", ",,a=b=c,", " a = x , b=\t"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		var dialled []string
		dial := func(target string) storage.Store {
			dialled = append(dialled, target)
			return storage.NewMemStore()
		}
		nodes, err := shard.ParsePeers(spec, dial)
		targets, terr := shard.PeerTargets(spec)
		if (err == nil) != (terr == nil) {
			t.Fatalf("ParsePeers err %v but PeerTargets err %v", err, terr)
		}
		if err != nil {
			return
		}
		if len(targets) != len(nodes) || len(dialled) != len(nodes) {
			t.Fatalf("%d nodes, %d dialled, %d targets: a name repeats", len(nodes), len(dialled), len(targets))
		}
		entries := make([]string, len(nodes))
		for i, n := range nodes {
			if targets[n.Name] != dialled[i] {
				t.Fatalf("peer %q: ring dials %q, federation queries %q", n.Name, dialled[i], targets[n.Name])
			}
			entries[i] = n.Name + "=" + dialled[i]
		}
		dialled = nil
		again, err := shard.ParsePeers(strings.Join(entries, ","), dial)
		if err != nil || len(again) != len(nodes) {
			t.Fatalf("re-rendered spec %q: %d nodes, err %v", strings.Join(entries, ","), len(again), err)
		}
		for i, n := range again {
			if n.Name != nodes[i].Name || entries[i] != n.Name+"="+dialled[i] {
				t.Fatalf("re-rendered spec %q: entry %d is %s=%s", strings.Join(entries, ","), i, n.Name, dialled[i])
			}
		}
	})
}
