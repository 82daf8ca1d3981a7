package telemetry

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestObserveExemplarPerBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("req_seconds", "service", "dash")

	h.ObserveExemplar(0.2, "trace-mid")   // le="0.25" bucket
	h.ObserveExemplar(3, "trace-slow")    // le="5" bucket
	h.ObserveExemplar(0.21, "trace-mid2") // same bucket: last writer wins
	h.ObserveExemplar(0.0002, "")         // no trace: counted, no exemplar
	h.ObserveExemplar(math.NaN(), "x")    // NaN: dropped entirely

	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("got %d exemplars, want 2: %+v", len(ex), ex)
	}
	if ex[0].LE != "0.25" || ex[0].Exemplar.TraceID != "trace-mid2" || ex[0].Exemplar.Value != 0.21 {
		t.Fatalf("first exemplar = %+v, want le=0.25 trace-mid2 0.21", ex[0])
	}
	if ex[1].LE != "5" || ex[1].Exemplar.TraceID != "trace-slow" {
		t.Fatalf("second exemplar = %+v, want le=5 trace-slow", ex[1])
	}

	// The plain observation still landed in the counts.
	if got := h.Snapshot().Count; got != 4 {
		t.Fatalf("count %d, want 4 (NaN dropped)", got)
	}
}

func TestWriteExemplarsAndHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ops_total").Add(3) // non-histogram families are skipped
	h := reg.Histogram("req_seconds", "service", "store")
	h.ObserveExemplar(0.2, "0123456789abcdef0123456789abcdef")

	var sb strings.Builder
	if err := reg.WriteExemplars(&sb); err != nil {
		t.Fatal(err)
	}
	want := `req_seconds{service="store",le="0.25"} 0.2 # trace=0123456789abcdef0123456789abcdef`
	if got := strings.TrimSpace(sb.String()); got != want {
		t.Fatalf("WriteExemplars:\n got %q\nwant %q", got, want)
	}

	// /metrics?format=exemplars serves the same view; the default view
	// stays the full exposition.
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=exemplars", nil))
	if got := strings.TrimSpace(rec.Body.String()); got != want {
		t.Fatalf("format=exemplars body:\n got %q\nwant %q", got, want)
	}
	rec = httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); !strings.Contains(body, "req_seconds_bucket") || strings.Contains(body, "# trace=") {
		t.Fatalf("default exposition changed:\n%s", body)
	}
}

func TestHistogramExemplarConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("req_seconds")
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				h.ObserveExemplar(0.2, "t")
				h.Exemplars()
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got := h.Snapshot().Count; got != 4000 {
		t.Fatalf("count %d, want 4000", got)
	}
}
