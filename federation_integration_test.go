package nsdfgo_test

import (
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestFederatedTraceEndToEnd: a client trace ID supplied on a read that
// the shipped fabric's dashboard fans out over the sharded tier must be
// retrievable from the dashboard as ONE federated tree containing spans
// from the dashboard and the store processes, with hedge-loser attempts
// marked cancelled and a dead peer degrading the assembly instead of
// failing it.
func TestFederatedTraceEndToEnd(t *testing.T) {
	// Each store delays requests for the key its slot holds, so a hedge
	// fires deterministically.
	var slowKey [3]atomic.Value
	f := startFabric(t, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if key, _ := slowKey[i].Load().(string); key != "" && strings.Contains(r.URL.Path, key) {
				time.Sleep(150 * time.Millisecond)
			}
			h.ServeHTTP(w, r)
		})
	})
	ds := f.convertElevation(t, "ds")

	// Slow block 0's PRIMARY replica: its read will hedge to the other
	// replica, the hedge wins, and the primary attempt must be booked as
	// a cancelled span. The store holding neither replica is stopped
	// after the read: it is the dead peer.
	block := ds.BlockKey("elevation", 0, 0)
	replicas := f.replicas("ds/" + block)
	primary, hedgeWinner := replicas[0], replicas[1]
	var dead string
	var stopDead func()
	for i, name := range f.names {
		switch name {
		case primary:
			slowKey[i].Store(block)
		case hedgeWinner:
		default:
			dead, stopDead = name, f.stores[i].stop
		}
	}
	dash := f.startDashboard(t, "tennessee=ds")

	// A cold full-region read with a client-supplied trace ID.
	traceID := "fedcba9876543210fedcba9876543210"
	fetch(t, dash.url+"/api/data?dataset=tennessee&field=elevation&x0=0&y0=0&x1=128&y1=64", traceID)
	stopDead()

	// Federated assembly. The hedge loser's trace publishes only after
	// its delayed handler finishes, so poll until all three live nodes
	// contributed.
	fed := pollFederated(t, dash.url, traceID, 3)
	if fed.Trace == nil || fed.Trace.TraceID != traceID {
		t.Fatalf("federated trace = %+v, want id %s", fed.Trace, traceID)
	}
	if reason := fed.Failed[dead]; reason == "" {
		t.Fatalf("dead peer %s missing from failed map: %v", dead, fed.Failed)
	}

	// Spans from all three live processes, namespaced per node; each
	// store's request root grafted under a dashboard span, so the tree
	// really is stitched across the process boundary; and the hedge on
	// the slowed block, its loser (the primary) booked as cancelled and
	// its winner as a successful hedge on the other store.
	spansPerNode := map[string]int{}
	grafted := 0
	var loser, winner bool
	for _, sp := range fed.Trace.Spans {
		spansPerNode[sp.Attrs["node"]]++
		if strings.HasPrefix(sp.ID, "store-") && strings.HasPrefix(sp.Name, "http ") {
			if !strings.HasPrefix(sp.Parent, "dashboard/") {
				t.Errorf("store request span %s parent %q, want a dashboard/ span", sp.ID, sp.Parent)
			}
			grafted++
		}
		if sp.Name == "shard.get" {
			loser = loser || sp.Attrs["outcome"] == "cancelled" && sp.Attrs["node"] == primary
			winner = winner || sp.Attrs["outcome"] == "ok" && sp.Attrs["hedge"] == "true" && sp.Attrs["node"] == hedgeWinner
		}
	}
	for _, node := range []string{"dashboard", primary, hedgeWinner} {
		if spansPerNode[node] == 0 {
			t.Errorf("no spans attributed to %s (have %v)", node, spansPerNode)
		}
	}
	if grafted == 0 {
		t.Error("no store request spans found in the federated trace")
	}
	if !loser {
		t.Errorf("no cancelled shard.get span on the hedge loser %s", primary)
	}
	if !winner {
		t.Errorf("no winning hedged shard.get span on %s", hedgeWinner)
	}

	// The text rendering names the assembly's provenance, dead peer
	// included.
	text := string(fetch(t, dash.url+"/debug/traces?federate=1&trace="+traceID, ""))
	for _, want := range []string{
		"assembled from 3 node(s)",
		"peer " + dead + " failed",
		"http /api/data",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("federated text missing %q:\n%s", want, text)
		}
	}
}
