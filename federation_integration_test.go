package nsdfgo_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nsdfgo/internal/dashboard"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/shard"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/trace"
)

// traceStore is one simulated nsdf-store process: an HTTP object server
// with its own trace collector, plus a gate that slows requests for one
// chosen block key so a hedge fires deterministically.
type traceStore struct {
	url     string
	slowKey atomic.Value // string: object key to delay, "" for none
}

func newTraceStore(t *testing.T, name string) *traceStore {
	t.Helper()
	ts := &traceStore{}
	ts.slowKey.Store("")
	col := trace.NewCollector(16)
	col.SetNode(name)
	inner := storage.NewServer(storage.NewMemStore(), "")
	slowed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if key := ts.slowKey.Load().(string); key != "" && strings.Contains(r.URL.Path, key) {
			time.Sleep(150 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	})
	mux := http.NewServeMux()
	mux.Handle("/debug/traces", col.Handler())
	mux.Handle("/", telemetry.WithTracing(slowed, col, telemetry.TracingOptions{Service: name}))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	ts.url = srv.URL
	return ts
}

// TestFederatedTraceEndToEnd is the tentpole acceptance path: a client
// trace ID supplied on a dashboard read that fans out over the sharded
// block tier must be retrievable from the dashboard as ONE federated
// tree containing spans from the dashboard and the store processes,
// with hedge-loser attempts marked cancelled and a dead peer degrading
// the assembly instead of failing it.
func TestFederatedTraceEndToEnd(t *testing.T) {
	ctx := context.Background()

	// Two store processes and a shard router over storage HTTP clients —
	// the same topology `nsdf-dashboard -peers` builds.
	stores := map[string]*traceStore{
		"store-a": newTraceStore(t, "store-a"),
		"store-b": newTraceStore(t, "store-b"),
	}
	r, err := shard.NewRouter([]shard.Node{
		{Name: "store-a", Store: storage.NewClient(stores["store-a"].url, "")},
		{Name: "store-b", Store: storage.NewClient(stores["store-b"].url, "")},
	}, shard.Options{Replicas: 2, HedgeAfter: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// A small dataset written through the router, so block reads travel
	// dashboard -> router -> store over real HTTP.
	scene := dem.Tennessee(128, 64, 77)
	g, err := geotiled.ComputeTiled(scene, geotiled.Elevation, geotiled.Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := idx.NewMeta([]int{128, 64}, []idx.Field{{Name: "elevation", Type: idx.Float32}})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := idx.Create(ctx, storage.NewIDXBackend(r, "ds"), meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteGrid(ctx, "elevation", 0, g); err != nil {
		t.Fatal(err)
	}

	// Slow block 0's PRIMARY replica: its read will hedge to the other
	// store, the hedge wins, and the primary attempt must be booked as a
	// cancelled span.
	block := ds.BlockKey("elevation", 0, 0)
	primary := r.Ring().Replicas("ds/"+block, 2)[0]
	stores[primary].slowKey.Store(block)
	hedgeWinner := "store-a"
	if primary == "store-a" {
		hedgeWinner = "store-b"
	}

	// The dashboard process, federated over both stores plus one dead
	// peer (a closed server) to exercise degradation.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	dashCol := trace.NewCollector(32)
	dashCol.SetNode("dashboard")
	dash := dashboard.NewServer()
	dash.EnableTracing(dashCol)
	dash.Register("tennessee", query.New(ds, 16<<20))
	dash.EnableFederation(map[string]string{
		"store-a":    stores["store-a"].url,
		"store-b":    stores["store-b"].url,
		"store-down": deadURL,
	}, 500*time.Millisecond)
	dashSrv := httptest.NewServer(telemetry.WithTracing(dash, dashCol,
		telemetry.TracingOptions{Service: "dashboard"}))
	defer dashSrv.Close()

	// A cold full-region read with a client-supplied trace ID.
	traceID := "fedcba9876543210fedcba9876543210"
	req, err := http.NewRequest("GET",
		dashSrv.URL+"/api/data?dataset=tennessee&field=elevation&x0=0&y0=0&x1=128&y1=64", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.TraceIDHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("data read status %s", resp.Status)
	}
	if got := resp.Header.Get(trace.TraceIDHeader); got != traceID {
		t.Fatalf("response trace header %q, want %q", got, traceID)
	}

	// Federated assembly. The hedge loser's trace publishes only after
	// its delayed handler finishes, so poll until all three live nodes
	// contributed.
	fed := pollFederated(t, dashSrv.URL, traceID,
		[]string{"dashboard", "store-a", "store-b"})

	if fed.Trace == nil || fed.Trace.TraceID != traceID {
		t.Fatalf("federated trace = %+v, want id %s", fed.Trace, traceID)
	}
	if reason := fed.Failed["store-down"]; reason == "" {
		t.Fatalf("dead peer missing from failed map: %v", fed.Failed)
	}

	// Spans from all three processes, namespaced per node.
	spansPerNode := map[string]int{}
	for _, sp := range fed.Trace.Spans {
		spansPerNode[sp.Attrs["node"]]++
	}
	for _, node := range []string{"dashboard", "store-a", "store-b"} {
		if spansPerNode[node] == 0 {
			t.Errorf("no spans attributed to %s (have %v)", node, spansPerNode)
		}
	}

	// Each store's request root grafts under a dashboard span, so the
	// tree really is stitched across the process boundary.
	grafted := 0
	for _, sp := range fed.Trace.Spans {
		if strings.HasPrefix(sp.ID, "store-") && strings.HasPrefix(sp.Name, "http ") {
			if !strings.HasPrefix(sp.Parent, "dashboard/") {
				t.Errorf("store request span %s parent %q, want a dashboard/ span", sp.ID, sp.Parent)
			}
			grafted++
		}
	}
	if grafted == 0 {
		t.Error("no store request spans found in the federated trace")
	}

	// The hedge on the slowed block: the loser (its primary) is booked
	// as cancelled, the winner as a successful hedge on the other store.
	var loser, winner bool
	for _, sp := range fed.Trace.Spans {
		if sp.Name != "shard.get" {
			continue
		}
		switch sp.Attrs["outcome"] {
		case "cancelled":
			if sp.Attrs["node"] == primary {
				loser = true
			}
		case "ok":
			if sp.Attrs["hedge"] == "true" && sp.Attrs["node"] == hedgeWinner {
				winner = true
			}
		}
	}
	if !loser {
		t.Errorf("no cancelled shard.get span on the hedge loser %s", primary)
	}
	if !winner {
		t.Errorf("no winning hedged shard.get span on %s", hedgeWinner)
	}

	// The text rendering names the assembly's provenance, dead peer
	// included.
	resp, err = http.Get(dashSrv.URL + "/debug/traces?federate=1&trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"assembled from 3 node(s)",
		"peer store-down failed",
		"http /api/data",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("federated text missing %q:\n%s", want, text)
		}
	}
}

// pollFederated fetches the federated trace until every node in want
// has contributed (hedge losers publish late) or the deadline passes.
func pollFederated(t *testing.T, baseURL, traceID string, want []string) *dashboard.FederatedTrace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/debug/traces?federate=1&format=json&trace=" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var fed dashboard.FederatedTrace
			if err := json.Unmarshal(body, &fed); err != nil {
				t.Fatalf("decode federated trace: %v\n%s", err, body)
			}
			have := map[string]bool{}
			for _, n := range fed.Nodes {
				have[n] = true
			}
			missing := false
			for _, n := range want {
				if !have[n] {
					missing = true
				}
			}
			if !missing {
				return &fed
			}
			last = fmt.Sprintf("nodes %v", fed.Nodes)
		} else {
			last = fmt.Sprintf("status %s: %s", resp.Status, body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("federated trace never assembled all of %v; last: %s", want, last)
	return nil
}
