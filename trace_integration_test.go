package nsdfgo_test

import (
	"slices"
	"testing"

	"nsdfgo/internal/telemetry/trace"
)

// TestTraceEndToEnd is the acceptance path for the tracing subsystem: a
// box read on the shipped fabric's dashboard, issued with a
// client-supplied X-NSDF-Trace-Id, must be findable at /debug/traces as
// one trace containing the query, IDX pipeline (plan, decode, assemble),
// and storage spans, each with a non-zero duration and the right
// attribution — and each storage fact recorded once: one storage.get
// span per Get the dashboard's instrumented tier counts.
func TestTraceEndToEnd(t *testing.T) {
	f := startFabric(t, nil)
	f.convertElevation(t, "ds")
	// A fresh dashboard: the first read hits a cold cache, so the fetch
	// and decode stages do real work and their spans get non-zero
	// durations.
	dash := f.startDashboard(t, "tennessee=ds")

	traceID := "0123456789abcdef0123456789abcdef"
	gets := dash.kit.Registry.Counter("nsdf_storage_ops_total", "backend", "shard", "op", "get")
	gets0 := gets.Value()
	fetch(t, dash.url+"/api/data?dataset=tennessee&field=elevation&x0=16&y0=16&x1=48&y1=40", traceID)

	// The completed trace must be retrievable from the dashboard's own
	// /debug/traces endpoint by the client-supplied ID.
	var traces []*trace.TraceData
	decode(t, fetch(t, dash.url+"/debug/traces?format=json&trace="+traceID, ""), &traces)
	if len(traces) != 1 {
		t.Fatalf("found %d traces for id %s, want 1", len(traces), traceID)
	}
	data := traces[0]
	if data.TraceID != traceID {
		t.Fatalf("trace id %q, want %q", data.TraceID, traceID)
	}
	if data.Duration <= 0 {
		t.Fatalf("trace duration %v, want > 0", data.Duration)
	}

	// Every layer of the serving path must appear, with real time booked
	// and the dataset attributed.
	for _, name := range []string{
		"http /api/data", "query.read",
		"idx.read", "idx.plan", "idx.decode", "idx.assemble",
		"storage.get",
	} {
		i := slices.IndexFunc(data.Spans, func(sp trace.SpanData) bool { return sp.Name == name })
		if i < 0 {
			t.Errorf("span %q missing from trace (got %d spans)", name, len(data.Spans))
			continue
		}
		sp := data.Spans[i]
		if sp.Duration <= 0 {
			t.Errorf("span %q duration %v, want > 0", name, sp.Duration)
		}
		switch name {
		case "query.read", "idx.read", "idx.decode", "idx.assemble":
			if sp.Attrs["dataset"] != "tennessee" {
				t.Errorf("span %q dataset attr %q, want tennessee", name, sp.Attrs["dataset"])
			}
		case "storage.get":
			if sp.Attrs["backend"] != "shard" {
				t.Errorf("span %q backend attr %q, want shard", name, sp.Attrs["backend"])
			}
		}
	}
	// One owner per storage fact: the tier's Get count and its spans.
	spans := 0
	for _, sp := range data.Spans {
		if sp.Name == "storage.get" {
			spans++
		}
	}
	if n := gets.Value() - gets0; n == 0 || int64(spans) != n {
		t.Errorf("trace holds %d storage.get spans for %d counted Gets, want one each", spans, n)
	}

	// The per-stage histograms must have absorbed the same request.
	series := scrape(t, dash.url)
	for _, stage := range []string{"plan", "decode", "assemble"} {
		key := `nsdf_idx_stage_seconds_count{dataset="tennessee",stage="` + stage + `"}`
		if series[key] == "" || series[key] == "0" {
			t.Errorf("stage histogram %s count = %q, want >= 1", key, series[key])
		}
	}
}
