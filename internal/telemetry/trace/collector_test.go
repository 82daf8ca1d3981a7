package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRingEvictionConcurrent hammers one small collector from many
// goroutines and checks the ring's promise: every publish is counted,
// exactly capacity traces survive, and the survivors are the most
// recently published ones in newest-first order.
func TestRingEvictionConcurrent(t *testing.T) {
	const capacity = 8
	const writers = 8
	const perWriter = 25
	col := NewCollector(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				col.StartTrace("", "req").End()
			}
		}()
	}
	wg.Wait()

	total := writers * perWriter
	if got := col.added; got != uint64(total) {
		t.Fatalf("Total = %d, want %d", got, total)
	}
	snap := col.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("Snapshot retained %d traces, want %d", len(snap), capacity)
	}
	for i, tr := range snap {
		// Newest first: strictly decreasing insertion sequence.
		if i > 0 && tr.seq >= snap[i-1].seq {
			t.Fatalf("snapshot not newest-first at %d: seq %d after %d", i, tr.seq, snap[i-1].seq)
		}
		// Only the last `capacity` publishes may survive eviction.
		if tr.seq < uint64(total-capacity) {
			t.Fatalf("evicted trace (seq %d of %d) still in snapshot", tr.seq, total)
		}
	}
}

// ringTestTrace publishes one trace with the given duration and dataset
// attribute through col's fake clock.
func ringTestTrace(col *Collector, id string, dur time.Duration, dataset string) {
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	ticks := []time.Time{base, base.Add(dur)}
	i := 0
	col.SetClock(func() time.Time { t := ticks[i%len(ticks)]; i++; return t })
	root := col.StartTrace(id, "http /api/data")
	ctx := NewContext(context.Background(), root)
	Record(ctx, "idx.read", base, base.Add(dur/2), Str("dataset", dataset))
	root.End()
}

func TestHandlerFilters(t *testing.T) {
	col := NewCollector(16)
	slowID := strings.Repeat("a", 32)
	fastID := strings.Repeat("b", 32)
	ringTestTrace(col, slowID, 2*time.Second, "tennessee")
	ringTestTrace(col, fastID, 10*time.Millisecond, "utah")
	h := col.Handler()

	get := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces"+query, nil))
		return rec
	}
	decode := func(rec *httptest.ResponseRecorder) []*TraceData {
		var out []*TraceData
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
			t.Fatalf("decode handler JSON: %v", err)
		}
		return out
	}

	if got := decode(get("?format=json")); len(got) != 2 {
		t.Fatalf("unfiltered: %d traces, want 2", len(got))
	}
	if got := decode(get("?format=json&min=1s")); len(got) != 1 || got[0].TraceID != slowID {
		t.Fatalf("min=1s kept %+v, want only the slow trace", got)
	}
	if got := decode(get("?format=json&dataset=utah")); len(got) != 1 || got[0].TraceID != fastID {
		t.Fatalf("dataset=utah kept %+v, want only the utah trace", got)
	}
	if got := decode(get("?format=json&limit=1")); len(got) != 1 || got[0].TraceID != fastID {
		t.Fatalf("limit=1 kept %+v, want only the newest trace", got)
	}
	if got := decode(get(fmt.Sprintf("?format=json&trace=%s", slowID))); len(got) != 1 || got[0].TraceID != slowID {
		t.Fatalf("trace=<id> lookup returned %+v", got)
	}
	if got := decode(get("?format=json&trace=" + strings.Repeat("c", 32))); len(got) != 0 {
		t.Fatalf("unknown trace id returned %+v, want empty", got)
	}
	if rec := get("?min=bogus"); rec.Code != 400 {
		t.Fatalf("bad min: status %d, want 400", rec.Code)
	}
	if rec := get("?limit=0"); rec.Code != 400 {
		t.Fatalf("bad limit: status %d, want 400", rec.Code)
	}

	text := get("?min=1s").Body.String()
	if !strings.Contains(text, "trace "+slowID) || !strings.Contains(text, "idx.read") {
		t.Fatalf("text rendering missing header or span tree:\n%s", text)
	}
	if !strings.Contains(text, "dataset=tennessee") {
		t.Fatalf("text rendering missing span attrs:\n%s", text)
	}
	if empty := get("?min=10m").Body.String(); !strings.Contains(empty, "no traces match") {
		t.Fatalf("empty text result missing placeholder:\n%s", empty)
	}
}
