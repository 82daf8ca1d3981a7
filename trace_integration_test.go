package nsdfgo_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nsdfgo/internal/dashboard"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/trace"
)

// TestTraceEndToEnd is the acceptance path for the tracing subsystem: a
// dashboard box read issued with a client-supplied X-NSDF-Trace-Id must
// be findable at /debug/traces as one trace containing the query, IDX
// pipeline (plan, decode, assemble), and storage spans, each with a
// non-zero duration and the right attribution — and each storage fact
// recorded once: one storage.get span per Get the instrumented store
// counts.
func TestTraceEndToEnd(t *testing.T) {
	ctx := context.Background()

	scene := dem.Tennessee(128, 64, 77)
	g, err := geotiled.ComputeTiled(scene, geotiled.Elevation, geotiled.Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := idx.NewMeta([]int{128, 64}, []idx.Field{{Name: "elevation", Type: idx.Float32}})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	be := storage.NewIDXBackend(storage.NewInstrumented(storage.NewMemStore(), reg, "mem"), "")
	ds, err := idx.Create(ctx, be, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteGrid(ctx, "elevation", 0, g); err != nil {
		t.Fatal(err)
	}

	col := trace.NewCollector(16)
	dash := dashboard.NewServer()
	dash.EnableTelemetry(reg)
	dash.EnableTracing(col)
	// A fresh engine: the first read hits a cold cache, so the fetch and
	// decode stages do real work and their spans get non-zero durations.
	dash.Register("tennessee", query.New(ds, 16<<20))

	srv := httptest.NewServer(telemetry.WithTracing(dash, col,
		telemetry.TracingOptions{Service: "dashboard", SlowRequest: time.Hour}))
	defer srv.Close()

	traceID := "0123456789abcdef0123456789abcdef"
	req, err := http.NewRequest("GET",
		srv.URL+"/api/data?dataset=tennessee&field=elevation&x0=16&y0=16&x1=48&y1=40", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(telemetry.TraceIDHeader, traceID)
	gets := reg.Counter("nsdf_storage_ops_total", "backend", "mem", "op", "get")
	gets0 := gets.Value()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("data read status %s", resp.Status)
	}
	if got := resp.Header.Get(telemetry.TraceIDHeader); got != traceID {
		t.Fatalf("response trace header %q, want the client-supplied %q", got, traceID)
	}

	// The completed trace must be retrievable from the dashboard's own
	// /debug/traces endpoint by the client-supplied ID.
	resp, err = http.Get(srv.URL + "/debug/traces?format=json&trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	var traces []*trace.TraceData
	err = json.NewDecoder(resp.Body).Decode(&traces)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
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
		sp := data.Span(name)
		if sp == nil {
			t.Errorf("span %q missing from trace (got %d spans)", name, len(data.Spans))
			continue
		}
		if sp.Duration <= 0 {
			t.Errorf("span %q duration %v, want > 0", name, sp.Duration)
		}
		switch name {
		case "query.read", "idx.read", "idx.decode", "idx.assemble":
			if sp.Attrs["dataset"] != "tennessee" {
				t.Errorf("span %q dataset attr %q, want tennessee", name, sp.Attrs["dataset"])
			}
		case "storage.get":
			if sp.Attrs["backend"] != "mem" {
				t.Errorf("span %q backend attr %q, want mem", name, sp.Attrs["backend"])
			}
		}
	}
	// One owner per storage fact: the store's Get count and its spans.
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
	series := scrape(t, srv.URL)
	for _, stage := range []string{"plan", "decode", "assemble"} {
		key := `nsdf_idx_stage_seconds_count{dataset="tennessee",stage="` + stage + `"}`
		if series[key] == "" || series[key] == "0" {
			t.Errorf("stage histogram %s count = %q, want >= 1", key, series[key])
		}
	}
}

// scrape fetches /metrics and returns a map of "name{labels}" -> value.
func scrape(t *testing.T, base string) map[string]string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range splitLines(string(body)) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		for i := len(line) - 1; i >= 0; i-- {
			if line[i] == ' ' {
				out[line[:i]] = line[i+1:]
				break
			}
		}
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
