package shard_test

import (
	"context"
	"testing"
	"time"

	"nsdfgo/internal/shard"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/flight"
	"nsdfgo/internal/telemetry/trace"
)

// tracedGet runs one router Get under a fresh trace and returns the
// completed trace's shard.get spans.
func tracedGet(t *testing.T, r *shard.Router, key string) []trace.SpanData {
	t.Helper()
	col := trace.NewCollector(4)
	root := col.StartTrace("", "test.get")
	ctx := trace.NewContext(context.Background(), root)
	if _, err := r.Get(ctx, key); err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	root.End()
	data := col.Find(root.TraceID())
	if data == nil {
		t.Fatal("trace not retained")
	}
	var spans []trace.SpanData
	for _, sp := range data.Spans {
		if sp.Name == "shard.get" {
			spans = append(spans, sp)
		}
	}
	return spans
}

func TestGetRecordsReplicaSpans(t *testing.T) {
	r, _, _ := newTestCluster(t, 3, shard.Options{Replicas: 2})
	ctx := context.Background()
	if err := r.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	spans := tracedGet(t, r, "k")
	if len(spans) != 1 {
		t.Fatalf("got %d shard.get spans, want 1 (no hedge, no failover)", len(spans))
	}
	sp := spans[0]
	if sp.Attrs["outcome"] != "ok" || sp.Attrs["hedge"] != "false" {
		t.Fatalf("span attrs %v, want outcome=ok hedge=false", sp.Attrs)
	}
	if sp.Attrs["node"] == "" {
		t.Fatal("span has no node attr")
	}
}

// TestHedgeLoserSpanCancelled is the tentpole's hedging guarantee: when
// a hedge wins, the loser's attempt is booked as a cancelled span
// rather than silently dropped, so a trace shows what the hedge cost.
func TestHedgeLoserSpanCancelled(t *testing.T) {
	// Two nodes, R=2: whichever replica the ring ranks first is made
	// slow, so the hedge to the second replica always wins.
	stores := map[string]*slowStore{
		"a": {Store: storage.NewMemStore()},
		"b": {Store: storage.NewMemStore()},
	}
	ctx := context.Background()
	for _, s := range stores {
		if err := s.Store.Put(ctx, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	r, err := shard.NewRouter([]shard.Node{
		{Name: "a", Store: stores["a"]},
		{Name: "b", Store: stores["b"]},
	}, shard.Options{Replicas: 2, HedgeAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	primary := r.Ring().Replicas("k", 2)[0]
	stores[primary].delay = 300 * time.Millisecond
	fl := flight.New(8)
	r.SetFlight(fl)

	spans := tracedGet(t, r, "k")
	if len(spans) != 2 {
		t.Fatalf("got %d shard.get spans, want 2 (winner + loser)", len(spans))
	}
	byOutcome := map[string]trace.SpanData{}
	for _, sp := range spans {
		byOutcome[sp.Attrs["outcome"]] = sp
	}
	winner, ok := byOutcome["ok"]
	if !ok {
		t.Fatalf("no ok span; outcomes %v", byOutcome)
	}
	if winner.Attrs["hedge"] != "true" {
		t.Fatalf("winner hedge attr %q, want true (the hedge won)", winner.Attrs["hedge"])
	}
	loser, ok := byOutcome["cancelled"]
	if !ok {
		t.Fatalf("hedge loser not recorded as cancelled; outcomes %v", byOutcome)
	}
	if loser.Attrs["hedge"] != "false" {
		t.Fatalf("loser hedge attr %q, want false (it was the primary)", loser.Attrs["hedge"])
	}

	// The hedge fire landed in the flight recorder with the trace ID.
	events := fl.Snapshot()
	if len(events) != 1 || events[0].Kind != flight.KindHedgeFired {
		t.Fatalf("flight events = %+v, want one hedge_fired", events)
	}
	if events[0].TraceID == "" {
		t.Fatal("hedge event has no trace ID")
	}
}

func TestFailoverSpanAndFlightEvent(t *testing.T) {
	r, flips, _ := newTestCluster(t, 3, shard.Options{Replicas: 2})
	ctx := context.Background()
	if err := r.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Down the key's first replica: the read must fail over and book an
	// error span for the lost node plus a failover flight event.
	replicas := r.Ring().Replicas("k", 2)
	for i, f := range flips {
		if nodeName(i) == replicas[0] {
			f.down.Store(true)
		}
	}
	fl := flight.New(8)
	r.SetFlight(fl)

	spans := tracedGet(t, r, "k")
	if len(spans) != 2 {
		t.Fatalf("got %d shard.get spans, want 2 (error + ok)", len(spans))
	}
	outcomes := map[string]bool{}
	for _, sp := range spans {
		outcomes[sp.Attrs["outcome"]] = true
	}
	if !outcomes["error"] || !outcomes["ok"] {
		t.Fatalf("outcomes %v, want error and ok", outcomes)
	}
	events := fl.Snapshot()
	if len(events) != 1 || events[0].Kind != flight.KindFailover {
		t.Fatalf("flight events = %+v, want one replica_failover", events)
	}
}

// slowStat delays every Stat by a fixed amount (honouring ctx).
type slowStat struct {
	storage.Store
	delay time.Duration
}

func (s *slowStat) Stat(ctx context.Context, key string) (storage.ObjectInfo, error) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return storage.ObjectInfo{}, ctx.Err()
	case <-t.C:
	}
	return s.Store.Stat(ctx, key)
}

// TestStatHedgesAndFailsOver: Stat runs Get's replica loop, so a slow
// replica is hedged past and a dead one failed over, each booking its
// counter, its flight event and shard.stat spans.
func TestStatHedgesAndFailsOver(t *testing.T) {
	ctx := context.Background()
	flips := map[string]*flipStore{}
	var nodes []shard.Node
	stats := map[string]*slowStat{}
	for _, name := range []string{"a", "b"} {
		flips[name] = &flipStore{inner: storage.NewMemStore()}
		if err := flips[name].inner.Put(ctx, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		stats[name] = &slowStat{Store: flips[name]}
		nodes = append(nodes, shard.Node{Name: name, Store: stats[name]})
	}
	r, err := shard.NewRouter(nodes, shard.Options{Replicas: 2, HedgeAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	r.Instrument(reg)
	primary := r.Ring().Replicas("k", 2)[0]

	// tracedStat runs one Stat under a fresh trace and a fresh flight
	// recorder, and returns the shard.stat span outcomes and the events.
	tracedStat := func() (map[string]trace.SpanData, []flight.Event) {
		t.Helper()
		fl := flight.New(8)
		r.SetFlight(fl)
		col := trace.NewCollector(4)
		root := col.StartTrace("", "test.stat")
		// The deadline only bounds a Stat that never hedges.
		sctx, cancel := context.WithTimeout(trace.NewContext(ctx, root), 5*time.Second)
		defer cancel()
		info, err := r.Stat(sctx, "k")
		if err != nil || info.Size != 1 {
			t.Fatalf("Stat = %+v, %v", info, err)
		}
		root.End()
		spans := map[string]trace.SpanData{}
		for _, sp := range col.Find(root.TraceID()).Spans {
			if sp.Name == "shard.stat" {
				spans[sp.Attrs["outcome"]] = sp
			}
		}
		return spans, fl.Snapshot()
	}

	// A primary slower than any test timeout: only the hedge can answer.
	stats[primary].delay = time.Minute
	spans, events := tracedStat()
	if got := counter(reg, "nsdf_shard_hedges_fired_total"); got != 1 {
		t.Fatalf("hedges_fired = %d, want 1", got)
	}
	if got := counter(reg, "nsdf_shard_hedges_won_total"); got != 1 {
		t.Fatalf("hedges_won = %d, want 1", got)
	}
	if len(spans) != 2 || spans["ok"].Attrs["hedge"] != "true" || spans["cancelled"].Attrs["node"] != primary {
		t.Fatalf("hedged Stat spans %+v, want a hedged ok and the primary cancelled", spans)
	}
	if len(events) != 1 || events[0].Kind != flight.KindHedgeFired {
		t.Fatalf("flight events = %+v, want one hedge_fired", events)
	}

	// A dead primary: the Stat fails over and books the loss.
	stats[primary].delay = 0
	flips[primary].down.Store(true)
	spans, events = tracedStat()
	if got := counter(reg, "nsdf_shard_replica_failovers_total"); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if len(spans) != 2 || spans["error"].Attrs["node"] != primary {
		t.Fatalf("failed-over Stat spans %+v, want the primary's error and an ok", spans)
	}
	if len(events) != 1 || events[0].Kind != flight.KindFailover {
		t.Fatalf("flight events = %+v, want one replica_failover", events)
	}
}

// TestUntracedGetRecordsNothing: without an active trace the span
// bookkeeping must stay out of the way (no panic, no spans).
func TestUntracedGetRecordsNothing(t *testing.T) {
	r, _, _ := newTestCluster(t, 2, shard.Options{Replicas: 2})
	ctx := context.Background()
	if err := r.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
}

func nodeName(i int) string {
	return []string{"n0", "n1", "n2", "n3", "n4", "n5"}[i]
}
