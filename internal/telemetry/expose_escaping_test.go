package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestExpositionEscapesLabelValues checks the text exposition stays
// one-sample-per-line and parseable when label values carry newlines,
// quotes, and backslashes: each must appear escaped inside the quoted
// label value, never raw.
func TestExpositionEscapesLabelValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("nsdf_escape_total", "path", "a\nb").Inc()
	r.Counter("nsdf_escape_total", "path", `quote"d`).Inc()
	r.Counter("nsdf_escape_total", "path", `back\slash`).Inc()

	var sb strings.Builder
	if err := r.WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		`nsdf_escape_total{path="a\nb"} 1`,
		`nsdf_escape_total{path="quote\"d"} 1`,
		`nsdf_escape_total{path="back\\slash"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing escaped series %s:\n%s", want, out)
		}
	}
	// A raw newline inside a label value would split a sample across
	// lines; every line must be a comment or end in a value.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed exposition line (label value leaked a newline?): %q", line)
		}
	}
}

// TestExpositionOrdering pins the deterministic layout: families
// sorted by name regardless of registration order, series within a
// family sorted by label signature, each family preceded by exactly one
// TYPE comment.
func TestExpositionOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("nsdf_order_b_total").Inc()
	r.Gauge("nsdf_order_a_live", "shard", "1").Set(1)
	r.Gauge("nsdf_order_a_live", "shard", "0").Set(2)

	var sb strings.Builder
	if err := r.WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	want := []string{
		"# TYPE nsdf_order_a_live gauge",
		`nsdf_order_a_live{shard="0"} 2`,
		`nsdf_order_a_live{shard="1"} 1`,
		"# TYPE nsdf_order_b_total counter",
		"nsdf_order_b_total 1",
	}
	if len(lines) != len(want) {
		t.Fatalf("exposition has %d lines, want %d:\n%s", len(lines), len(want), sb.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestStatusRecorderDefaults200 covers the implicit-200 contract: a
// handler that writes a body without ever calling WriteHeader must be
// recorded as 200, and an explicit WriteHeader must win.
func TestStatusRecorderDefaults200(t *testing.T) {
	rec := NewStatusRecorder(httptest.NewRecorder())
	if _, err := rec.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("implicit status = %d, want 200", rec.Code)
	}

	inner := httptest.NewRecorder()
	rec = NewStatusRecorder(inner)
	rec.WriteHeader(http.StatusNotFound)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("explicit status = %d, want 404", rec.Code)
	}
	if inner.Code != http.StatusNotFound {
		t.Fatalf("underlying writer saw %d, want 404", inner.Code)
	}
}

// TestWrapRecordsStatusClass ties the recorder into HTTPMetrics the way
// the servers do — handler wrapped in a StatusRecorder, its Code handed
// to Observe: a 404 handler must land in the 4xx class, a plain-body
// handler in 2xx, and each request is one latency observation.
func TestWrapRecordsStatusClass(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, "test")

	serve := func(route string, handler http.HandlerFunc) {
		rec := NewStatusRecorder(httptest.NewRecorder())
		handler(rec, httptest.NewRequest("GET", "/"+route, nil))
		m.Observe(route, rec.Code, time.Millisecond)
	}
	serve("missing", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	})
	serve("plain", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("hi")) //lint:allow droppederr test handler
	})
	if snap := reg.Histogram("nsdf_http_request_seconds", "service", "test").Snapshot(); snap.Count != 2 {
		t.Errorf("latency observations = %d, want 2", snap.Count)
	}

	var sb strings.Builder
	if err := reg.WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Label keys are sorted inside the rendered signature.
	for _, want := range []string{
		`nsdf_http_requests_total{class="4xx",route="missing",service="test"} 1`,
		`nsdf_http_requests_total{class="2xx",route="plain",service="test"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s:\n%s", want, out)
		}
	}
}
