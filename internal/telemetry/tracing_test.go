package telemetry

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nsdfgo/internal/telemetry/trace"
)

// traceClock is a race-free fake clock advancing by step per reading.
func traceClock(base time.Time, step time.Duration) func() time.Time {
	var mu sync.Mutex
	t := base
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		out := t
		t = t.Add(step)
		return out
	}
}

// TestTracingAdoptsInboundID: a well-formed client-supplied trace ID is
// reused for the whole request — planted in the handler's context,
// echoed on the response, and findable in the collector afterwards.
func TestTracingAdoptsInboundID(t *testing.T) {
	col := trace.NewCollector(4)
	id := "0123456789abcdef0123456789abcdef"
	var seen string
	h := WithTracing(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = trace.ID(r.Context())
	}), col, TracingOptions{Service: "test"})

	req := httptest.NewRequest("GET", "/api/data", nil)
	req.Header.Set(trace.TraceIDHeader, id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if seen != id {
		t.Fatalf("handler context carried trace %q, want %q", seen, id)
	}
	if got := rec.Header().Get(trace.TraceIDHeader); got != id {
		t.Fatalf("response header = %q, want %q", got, id)
	}
	data := col.Find(id)
	if data == nil {
		t.Fatalf("trace %s not in collector", id)
	}
	var root *trace.SpanData
	for i := range data.Spans {
		if data.Spans[i].Name == "http /api/data" {
			root = &data.Spans[i]
			break
		}
	}
	if root == nil {
		t.Fatalf("root span missing: %+v", data.Spans)
	}
	if root.Attrs["service"] != "test" || root.Attrs["method"] != "GET" || root.Attrs["status"] != "200" {
		t.Fatalf("root attrs wrong: %+v", root.Attrs)
	}
}

// TestTracingRejectsMalformedID: malformed inbound IDs must be replaced
// with a fresh valid one, never adopted verbatim.
func TestTracingRejectsMalformedID(t *testing.T) {
	col := trace.NewCollector(4)
	h := WithTracing(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		col, TracingOptions{Service: "test"})
	for _, bad := range []string{"", "short", strings.Repeat("Z", 32), strings.Repeat("a", 33)} {
		req := httptest.NewRequest("GET", "/x", nil)
		if bad != "" {
			req.Header.Set(trace.TraceIDHeader, bad)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		got := rec.Header().Get(trace.TraceIDHeader)
		if got == bad {
			t.Errorf("malformed inbound ID %q was adopted", bad)
		}
		if !trace.ValidID(got) {
			t.Errorf("response ID %q (for inbound %q) is not valid", got, bad)
		}
	}
}

// TestSlowRequestLog drives the middleware with a fake clock so the
// request appears to take 4s against a 1s threshold, and checks the
// structured warning names the trace and its worst span.
func TestSlowRequestLog(t *testing.T) {
	col := trace.NewCollector(4)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	// Clock readings: StartTrace start, root End → 2 reads 4s apart.
	col.SetClock(traceClock(base, 4*time.Second))

	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	id := strings.Repeat("d", 32)
	h := WithTracing(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace.Record(r.Context(), "idx.fetch", base, base.Add(3*time.Second),
			trace.Str("dataset", "tn"))
	}), col, TracingOptions{Service: "test", SlowRequest: time.Second, Logger: logger})

	req := httptest.NewRequest("GET", "/api/data", nil)
	req.Header.Set(trace.TraceIDHeader, id)
	h.ServeHTTP(httptest.NewRecorder(), req)

	out := buf.String()
	if !strings.Contains(out, "slow request") {
		t.Fatalf("no slow-request warning logged:\n%s", out)
	}
	for _, want := range []string{"trace=" + id, "path=/api/data", "worst=", "idx.fetch=3s"} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-request log missing %q:\n%s", want, out)
		}
	}

	// Below threshold: same setup but a fast clock must stay silent.
	buf.Reset()
	col2 := trace.NewCollector(4)
	col2.SetClock(traceClock(base, time.Millisecond))
	h2 := WithTracing(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		col2, TracingOptions{Service: "test", SlowRequest: time.Second, Logger: logger})
	h2.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/fast", nil))
	if buf.Len() != 0 {
		t.Fatalf("fast request logged a slow-request warning:\n%s", buf.String())
	}
}

// TestWorstSpans: non-root spans sorted by duration, capped at n, root
// excluded.
func TestWorstSpans(t *testing.T) {
	data := &trace.TraceData{Spans: []trace.SpanData{
		{Name: "a", ID: "2", Parent: "1", Duration: time.Second},
		{Name: "b", ID: "3", Parent: "1", Duration: 3 * time.Second},
		{Name: "c", ID: "4", Parent: "1", Duration: 2 * time.Second},
		{Name: "root", ID: "1", Duration: 10 * time.Second},
	}}
	if got := WorstSpans(data, 2); got != "b=3s c=2s" {
		t.Fatalf("WorstSpans = %q, want %q", got, "b=3s c=2s")
	}
}

// TestTracingPanicKeepsTrace: a handler that panics still publishes its
// trace, so the request an operator most needs is in /debug/traces. The
// root span carries no status: the handler never returned one.
func TestTracingPanicKeepsTrace(t *testing.T) {
	col := trace.NewCollector(4)
	id := strings.Repeat("e", 32)
	h := WithTracing(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}), col, TracingOptions{Service: "test"})

	req := httptest.NewRequest("GET", "/api/render", nil)
	req.Header.Set(trace.TraceIDHeader, id)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("handler panic was swallowed")
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()

	if n := len(col.Snapshot()); n != 1 {
		t.Fatalf("collector holds %d traces, want 1", n)
	}
	data := col.Find(id)
	if data == nil || len(data.Spans) != 1 {
		t.Fatalf("trace %s missing or malformed: %+v", id, data)
	}
	if _, ok := data.Spans[0].Attrs["status"]; ok {
		t.Errorf("panicked request recorded a status: %+v", data.Spans[0].Attrs)
	}
}
