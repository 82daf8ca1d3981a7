package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/flight"
	"nsdfgo/internal/telemetry/trace"
)

// Node pairs a fleet-wide stable name with the store serving that
// shard. Names are the ring's placement identity: every router in a
// deployment must use the same names for the same stores, or their
// placements diverge.
type Node struct {
	Name  string
	Store storage.Store
}

// Options configures a Router.
type Options struct {
	// Replicas is R, the number of nodes each key is written to and
	// readable from. Defaults to 2; clamped to the node count.
	Replicas int
	// HedgeAfter is how long a Get waits on the current replica before
	// firing a hedged request at the next one. Pick a p99-ish value: low
	// enough to beat the tail, high enough that almost all responses
	// arrive first and the extra backend load stays in the noise. 0
	// disables hedging (reads still fail over on error).
	HedgeAfter time.Duration
	// VirtualNodes is the per-node vnode count (DefaultVirtualNodes if 0).
	VirtualNodes int
}

// Router is a storage.Store that federates N node stores behind the
// consistent-hash ring. Reads try the key's replicas in ring order,
// hedging a second request after HedgeAfter and failing over on error;
// the first successful response wins and the losers are
// context-cancelled. Writes go to all R replicas in parallel and
// degrade to the survivors — a node loss costs a telemetry counter, not
// an error — so the serving path rides through failures the way the
// paper's multi-node Seal deployment must.
//
// Router is safe for concurrent use.
type Router struct {
	ring       *Ring
	stores     map[string]storage.Store
	replicas   int
	hedgeAfter time.Duration

	// Telemetry is nil until Instrument; every recording site is
	// nil-safe so an uninstrumented router costs nothing.
	gets        *telemetry.Counter
	hedgesFired *telemetry.Counter
	hedgesWon   *telemetry.Counter
	failovers   *telemetry.Counter
	nodeUp      map[string]*telemetry.Gauge
	nodeGets    map[string]*telemetry.Counter

	// fl receives hedge_fired and replica_failover flight events; nil
	// disables (SetFlight).
	fl atomic.Pointer[flight.Recorder]
}

// NewRouter builds a router over the given nodes. At least one node is
// required and names must be unique.
func NewRouter(nodes []Node, opts Options) (*Router, error) {
	if len(nodes) == 0 {
		return nil, errors.New("shard: router needs at least one node")
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	if opts.Replicas > len(nodes) {
		opts.Replicas = len(nodes)
	}
	ring := NewRing(opts.VirtualNodes)
	stores := make(map[string]storage.Store, len(nodes))
	for _, n := range nodes {
		if n.Name == "" || n.Store == nil {
			return nil, fmt.Errorf("shard: node %+v needs a name and a store", n.Name)
		}
		if _, dup := stores[n.Name]; dup {
			return nil, fmt.Errorf("shard: duplicate node name %q", n.Name)
		}
		stores[n.Name] = n.Store
		ring.Add(n.Name)
	}
	return &Router{
		ring:       ring,
		stores:     stores,
		replicas:   opts.Replicas,
		hedgeAfter: opts.HedgeAfter,
	}, nil
}

// Ring exposes the placement ring (read-only by contract).
func (r *Router) Ring() *Ring { return r.ring }

// Replicas reports the configured replication factor.
func (r *Router) Replicas() int { return r.replicas }

// Instrument registers the router's metric families in reg:
// nsdf_shard_{gets,hedges_fired,hedges_won,replica_failovers}_total plus
// the per-node nsdf_shard_node_up / nsdf_shard_node_vnodes gauges and
// nsdf_shard_node_gets_total counters.
func (r *Router) Instrument(reg *telemetry.Registry) {
	r.gets = reg.Counter("nsdf_shard_gets_total")
	r.hedgesFired = reg.Counter("nsdf_shard_hedges_fired_total")
	r.hedgesWon = reg.Counter("nsdf_shard_hedges_won_total")
	r.failovers = reg.Counter("nsdf_shard_replica_failovers_total")
	r.nodeUp = make(map[string]*telemetry.Gauge, len(r.stores))
	r.nodeGets = make(map[string]*telemetry.Counter, len(r.stores))
	for _, name := range r.ring.Nodes() {
		up := reg.Gauge("nsdf_shard_node_up", "node", name)
		up.Set(1)
		r.nodeUp[name] = up
		reg.Gauge("nsdf_shard_node_vnodes", "node", name).Set(float64(r.ring.VirtualNodes()))
		r.nodeGets[name] = reg.Counter("nsdf_shard_node_gets_total", "node", name)
	}
}

// SetFlight wires the flight recorder that receives the router's
// anomaly events: every hedge fired and every replica failover, each
// stamped with the active trace ID. Safe to call concurrently with
// operations.
func (r *Router) SetFlight(fl *flight.Recorder) {
	if fl != nil {
		r.fl.Store(fl)
	}
}

// inc bumps a nil-safe counter.
func inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

// markNode records a node's last-op health in its up gauge.
func (r *Router) markNode(name string, up bool) {
	if g, ok := r.nodeUp[name]; ok {
		v := 0.0
		if up {
			v = 1
		}
		g.Set(v)
	}
}

// nodeFailure reports whether err indicates the node itself failed (as
// opposed to an honest miss or the caller giving up).
func nodeFailure(err error) bool {
	return err != nil &&
		!errors.Is(err, storage.ErrNotExist) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// getResult carries one replica's response through the hedging loop.
type getResult struct {
	data   []byte
	err    error
	launch int
}

// Get implements storage.Store with hedged, failing-over reads. The
// request is tried against the key's replicas in ring order: replica
// i+1 launches either when replica i errors (failover) or when
// HedgeAfter elapses with no response (hedge). The first success wins
// and cancels the rest. ErrNotExist from one replica still probes the
// others — a partially-written key must be served from whichever
// replica has it — and only becomes the result once every replica has
// missed.
//
// Under an active trace every replica attempt books a shard.get span
// annotated with its node, whether it was a hedge, and its outcome —
// hedge losers are tagged outcome=cancelled rather than dropped, so a
// trace shows which node the winning bytes came from and what the
// hedge cost.
func (r *Router) Get(ctx context.Context, key string) ([]byte, error) {
	replicas := r.ring.Replicas(key, r.replicas)
	if len(replicas) == 0 {
		return nil, errors.New("shard: ring has no nodes")
	}
	inc(r.gets)

	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered to len(replicas): losers complete their sends after we
	// return, so none of the launched goroutines can leak.
	results := make(chan getResult, len(replicas))
	hedged := make([]bool, len(replicas))
	launchedAt := make([]time.Time, len(replicas))
	settled := make([]bool, len(replicas))
	traced := trace.Active(ctx)
	// span books one replica attempt into the trace. All spans are
	// recorded from this goroutine — losers included, when the winner
	// settles — because a loser's own goroutine can outlive the root
	// span and lose the record.
	span := func(i int, outcome string, end time.Time) {
		settled[i] = true
		if !traced {
			return
		}
		hedge := "false"
		if hedged[i] {
			hedge = "true"
		}
		trace.Record(ctx, "shard.get", launchedAt[i], end,
			trace.Str("node", replicas[i]),
			trace.Str("hedge", hedge),
			trace.Str("outcome", outcome))
	}
	// settleLosers tags every launched-but-unsettled replica cancelled:
	// returning cancels gctx, which aborts their in-flight requests.
	settleLosers := func() {
		if !traced {
			return
		}
		end := time.Now()
		for i := range settled {
			if !launchedAt[i].IsZero() && !settled[i] {
				span(i, "cancelled", end)
			}
		}
	}
	launch := func(i int, isHedge bool) {
		hedged[i] = isHedge
		launchedAt[i] = time.Now()
		st := r.stores[replicas[i]]
		if c, ok := r.nodeGets[replicas[i]]; ok {
			c.Inc()
		}
		go func() {
			data, err := st.Get(gctx, key)
			results <- getResult{data: data, err: err, launch: i}
		}()
	}
	launch(0, false)
	next, outstanding := 1, 1

	var hedgeC <-chan time.Time
	if r.hedgeAfter > 0 && next < len(replicas) {
		t := time.NewTimer(r.hedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr, miss error
	for outstanding > 0 {
		select {
		case res := <-results:
			outstanding--
			name := replicas[res.launch]
			if res.err == nil {
				r.markNode(name, true)
				if hedged[res.launch] {
					inc(r.hedgesWon)
				}
				span(res.launch, "ok", time.Now())
				settleLosers()
				return res.data, nil
			}
			if err := ctx.Err(); err != nil {
				span(res.launch, "cancelled", time.Now())
				settleLosers()
				return nil, err
			}
			if nodeFailure(res.err) {
				span(res.launch, "error", time.Now())
				r.markNode(name, false)
				if firstErr == nil {
					firstErr = res.err
				}
				if next < len(replicas) {
					inc(r.failovers)
					r.fl.Load().Record(flight.KindFailover, trace.ID(ctx),
						"get key=%s node=%s -> %s err=%v", key, name, replicas[next], res.err)
				}
			} else if errors.Is(res.err, storage.ErrNotExist) {
				span(res.launch, "miss", time.Now())
				r.markNode(name, true)
				miss = res.err
			} else {
				span(res.launch, "cancelled", time.Now())
			}
			if next < len(replicas) {
				launch(next, false)
				next++
				outstanding++
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(replicas) {
				inc(r.hedgesFired)
				r.fl.Load().Record(flight.KindHedgeFired, trace.ID(ctx),
					"get key=%s replica=%s after=%s", key, replicas[next], r.hedgeAfter)
				launch(next, true)
				next++
				outstanding++
			}
		case <-ctx.Done():
			settleLosers()
			return nil, ctx.Err()
		}
	}
	if miss != nil && firstErr == nil {
		return nil, miss
	}
	if firstErr != nil {
		return nil, fmt.Errorf("shard: all %d replicas of %q failed: %w", len(replicas), key, firstErr)
	}
	return nil, fmt.Errorf("%w: %q", storage.ErrNotExist, key)
}

// fanOut runs op against every named node in parallel and returns the
// per-node errors in the same order.
func (r *Router) fanOut(ctx context.Context, names []string, op func(ctx context.Context, st storage.Store) error) []error {
	errs := make([]error, len(names))
	done := make(chan int, len(names))
	for i, name := range names {
		go func(i int, st storage.Store) {
			errs[i] = op(ctx, st)
			done <- i
		}(i, r.stores[name])
	}
	for range names {
		<-done
	}
	return errs
}

// writeQuorum folds a replicated write's per-node errors into the
// degraded-mode contract: success if any replica took the write (each
// lost replica books a failover — counted, flight-recorded — and marks
// the node down), the combined error only when every replica failed.
func (r *Router) writeQuorum(ctx context.Context, what string, key string, names []string, errs []error) error {
	var firstErr error
	var lost []int
	ok := 0
	for i, err := range errs {
		if err == nil {
			r.markNode(names[i], true)
			ok++
			continue
		}
		if nodeFailure(err) {
			r.markNode(names[i], false)
		}
		if firstErr == nil {
			firstErr = err
		}
		lost = append(lost, i)
	}
	if ok == 0 {
		return fmt.Errorf("shard: %s %q failed on all %d replicas: %w", what, key, len(names), firstErr)
	}
	for _, i := range lost {
		inc(r.failovers)
		r.fl.Load().Record(flight.KindFailover, trace.ID(ctx),
			"%s key=%s node=%s degraded err=%v", what, key, names[i], errs[i])
	}
	return nil
}

// Put implements storage.Store: the payload is written to all R
// replicas in parallel. Losing a node degrades the key to its surviving
// replicas (counted in nsdf_shard_replica_failovers_total); the write
// only fails when no replica accepted it.
func (r *Router) Put(ctx context.Context, key string, data []byte) error {
	names := r.ring.Replicas(key, r.replicas)
	if len(names) == 0 {
		return errors.New("shard: ring has no nodes")
	}
	errs := r.fanOut(ctx, names, func(ctx context.Context, st storage.Store) error {
		return st.Put(ctx, key, data)
	})
	return r.writeQuorum(ctx, "put", key, names, errs)
}

// Delete implements storage.Store, removing the key from all replicas.
// Like Put it degrades to the surviving replicas.
func (r *Router) Delete(ctx context.Context, key string) error {
	names := r.ring.Replicas(key, r.replicas)
	if len(names) == 0 {
		return errors.New("shard: ring has no nodes")
	}
	errs := r.fanOut(ctx, names, func(ctx context.Context, st storage.Store) error {
		return st.Delete(ctx, key)
	})
	return r.writeQuorum(ctx, "delete", key, names, errs)
}

// Stat implements storage.Store by trying the key's replicas in ring
// order: node failures fail over (counted), and ErrNotExist is returned
// only after every replica has missed.
func (r *Router) Stat(ctx context.Context, key string) (storage.ObjectInfo, error) {
	names := r.ring.Replicas(key, r.replicas)
	if len(names) == 0 {
		return storage.ObjectInfo{}, errors.New("shard: ring has no nodes")
	}
	var firstErr, miss error
	for i, name := range names {
		info, err := r.stores[name].Stat(ctx, key)
		if err == nil {
			r.markNode(name, true)
			return info, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return storage.ObjectInfo{}, cerr
		}
		if nodeFailure(err) {
			r.markNode(name, false)
			if firstErr == nil {
				firstErr = err
			}
			if i < len(names)-1 {
				inc(r.failovers)
			}
		} else if errors.Is(err, storage.ErrNotExist) {
			r.markNode(name, true)
			miss = err
		}
	}
	if miss != nil && firstErr == nil {
		return storage.ObjectInfo{}, miss
	}
	return storage.ObjectInfo{}, fmt.Errorf("shard: stat %q failed on all %d replicas: %w", key, len(names), firstErr)
}

// List implements storage.Store by querying every node in parallel and
// merging the listings (replicated keys deduplicate to one entry).
// Because every key lives on R nodes, the merged listing stays complete
// while fewer than R nodes are down; at R or more failures a listing
// could silently lose keys, so that returns an error instead.
func (r *Router) List(ctx context.Context, prefix string) ([]storage.ObjectInfo, error) {
	names := r.ring.Nodes()
	if len(names) == 0 {
		return nil, errors.New("shard: ring has no nodes")
	}
	lists := make([][]storage.ObjectInfo, len(names))
	errs := make([]error, len(names))
	done := make(chan int, len(names))
	for i, name := range names {
		go func(i int, st storage.Store) {
			lists[i], errs[i] = st.List(ctx, prefix)
			done <- i
		}(i, r.stores[name])
	}
	for range names {
		<-done
	}
	failed := 0
	var firstErr error
	for i, err := range errs {
		if err == nil {
			r.markNode(names[i], true)
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		failed++
		if nodeFailure(err) {
			r.markNode(names[i], false)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if failed >= r.replicas {
		return nil, fmt.Errorf("shard: list %q lost %d of %d nodes (replication %d cannot cover it): %w",
			prefix, failed, len(names), r.replicas, firstErr)
	}
	for i := 0; i < failed; i++ {
		inc(r.failovers)
	}
	merged := make(map[string]storage.ObjectInfo)
	for _, l := range lists {
		for _, info := range l {
			if prev, ok := merged[info.Key]; !ok || info.ModTime.After(prev.ModTime) {
				merged[info.Key] = info
			}
		}
	}
	out := make([]storage.ObjectInfo, 0, len(merged))
	for _, info := range merged {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// peer is one entry of a -peers spec.
type peer struct{ name, target string }

// parsePeerSpec parses a comma-separated list of name=target entries
// ("a=http://host1:9000,b=http://host2:9000") in spec order. Names are
// the ring placement identity, so a repeated name is an error here for
// every consumer of the spec, not only for the one that builds a ring.
func parsePeerSpec(spec string) ([]peer, error) {
	var peers []peer
	seen := make(map[string]bool)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, target, ok := strings.Cut(entry, "=")
		if !ok || name == "" || target == "" {
			return nil, fmt.Errorf("shard: bad peer %q (want name=target)", entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("shard: duplicate peer name %q", name)
		}
		seen[name] = true
		peers = append(peers, peer{name, target})
	}
	return peers, nil
}

// ParsePeers parses a comma-separated list of name=target peer specs
// ("a=http://host1:9000,b=http://host2:9000"), dialing each target with
// dial. Names are the ring placement identity, so a fleet must use the
// same name for the same store everywhere.
func ParsePeers(spec string, dial func(target string) storage.Store) ([]Node, error) {
	peers, err := parsePeerSpec(spec)
	if err != nil {
		return nil, err
	}
	var nodes []Node
	for _, p := range peers {
		nodes = append(nodes, Node{Name: p.name, Store: dial(p.target)})
	}
	return nodes, nil
}

// PeerTargets parses the same name=target spec as ParsePeers into a
// name -> base-URL map, without dialing anything — the form federated
// trace assembly wants, since it talks to peers' debug endpoints
// rather than their object planes.
func PeerTargets(spec string) (map[string]string, error) {
	peers, err := parsePeerSpec(spec)
	if err != nil {
		return nil, err
	}
	targets := make(map[string]string, len(peers))
	for _, p := range peers {
		targets[p.name] = p.target
	}
	return targets, nil
}
