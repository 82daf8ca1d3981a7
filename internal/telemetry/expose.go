package telemetry

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// formatValue renders a sample like the Prometheus text format: integers
// without a decimal point, everything else in shortest form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLabel splices an extra label into a rendered label signature, e.g.
// withLabel(`{a="b"}`, "le", "0.5") -> `{a="b",le="0.5"}`.
func withLabel(sig, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if sig == "" {
		return "{" + extra + "}"
	}
	return sig[:len(sig)-1] + "," + extra + "}"
}

// WriteExposition renders the registry in the Prometheus text exposition
// format: families sorted by name, series sorted by label signature,
// histograms as cumulative le-buckets plus _sum and _count plus estimated
// p50/p95/p99 quantile series (so a curl of /metrics shows percentiles
// without a query engine).
func (r *Registry) WriteExposition(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.names {
		f := r.families[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind); err != nil {
			return err
		}
		for _, sig := range f.order {
			s := f.series[sig]
			if err := writeSeries(w, name, s, f.kind); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name string, s *series, kind Kind) error {
	switch {
	case s.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatValue(s.fn()))
		return err
	case kind == KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.c.Value())
		return err
	case kind == KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatValue(s.g.Value()))
		return err
	case kind == KindHistogram:
		h := s.h
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			le := strconv.FormatFloat(bound, 'g', -1, 64)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(s.labels, "le", le), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(s.labels, "le", "+Inf"), cum); err != nil {
			return err
		}
		snap := h.Snapshot()
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatValue(snap.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, snap.Count); err != nil {
			return err
		}
		for _, q := range [...]struct {
			q string
			v float64
		}{{"0.5", snap.P50}, {"0.95", snap.P95}, {"0.99", snap.P99}} {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, withLabel(s.labels, "quantile", q.q), formatValue(q.v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteExemplars renders the exemplar view: one line per histogram
// bucket that has one, in the shape
//
//	nsdf_http_request_seconds{service="store",le="0.25"} 0.21 # trace=<id>
//
// so a suspicious bucket on /metrics links straight to a trace ID a
// student can paste into /debug/traces?federate=1 on the dashboard.
func (r *Registry) WriteExemplars(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.names {
		f := r.families[name]
		if f.kind != KindHistogram {
			continue
		}
		for _, sig := range f.order {
			s := f.series[sig]
			if s.h == nil {
				continue
			}
			for _, be := range s.h.Exemplars() {
				_, err := fmt.Fprintf(w, "%s%s %s # trace=%s\n",
					name, withLabel(s.labels, "le", be.LE),
					formatValue(be.Exemplar.Value), be.Exemplar.TraceID)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Handler returns an http.Handler serving the text exposition — mount it
// at /metrics. With ?format=exemplars it serves the exemplar view
// (WriteExemplars) instead: per-bucket trace IDs linking latency
// outliers to /debug/traces.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.URL.Query().Get("format") == "exemplars" {
			r.WriteExemplars(w)
			return
		}
		r.WriteExposition(w)
	})
}

// StatusRecorder wraps a ResponseWriter to capture the status code for
// request accounting. A handler that never calls WriteHeader is a 200.
// The wrapper forwards the optional ResponseWriter capabilities the
// serving stack relies on: Flush reaches the inner http.Flusher (so
// wrapping middleware does not break streamed/progressive responses),
// ReadFrom reaches the inner io.ReaderFrom (preserving sendfile-style
// copies), and Unwrap lets http.ResponseController find both.
type StatusRecorder struct {
	http.ResponseWriter
	// Code is the first status code written, defaulting to 200.
	Code int
}

// NewStatusRecorder wraps w with Code preset to 200.
func NewStatusRecorder(w http.ResponseWriter) *StatusRecorder {
	return &StatusRecorder{ResponseWriter: w, Code: http.StatusOK}
}

// WriteHeader implements http.ResponseWriter.
func (r *StatusRecorder) WriteHeader(code int) {
	r.Code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush implements http.Flusher by delegating to the wrapped writer.
// When the inner writer cannot flush, this is a no-op — matching the
// behaviour of an unwrapped non-flushing writer.
func (r *StatusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom implements io.ReaderFrom: it delegates to the inner writer
// when it supports the fast path, and falls back to a plain copy
// otherwise. The fallback deliberately hides this method from io.Copy
// (via the anonymous-struct wrapper) to avoid recursing into ReadFrom.
func (r *StatusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if rf, ok := r.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	return io.Copy(struct{ io.Writer }{r.ResponseWriter}, src)
}

// Unwrap exposes the inner writer to http.ResponseController, which
// probes the whole wrapper chain for Flusher/Hijacker support.
func (r *StatusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// HTTPMetrics records per-route request counts (by status class) and a
// service-wide latency histogram — the shared middleware state for the
// catalog and dashboard servers.
type HTTPMetrics struct {
	reg     *Registry
	service string
	lat     *Histogram
}

// NewHTTPMetrics registers the nsdf_http_* families for one service.
func NewHTTPMetrics(reg *Registry, service string) *HTTPMetrics {
	return &HTTPMetrics{
		reg:     reg,
		service: service,
		lat:     reg.Histogram("nsdf_http_request_seconds", "service", service),
	}
}

// statusClass buckets a status code as "2xx", "3xx", "4xx", or "5xx".
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// Observe records one completed request. route should be a bounded set
// of normalised route names, not raw URLs.
func (m *HTTPMetrics) Observe(route string, code int, elapsed time.Duration) {
	m.ObserveTraced(route, code, elapsed, "")
}

// ObserveTraced is Observe plus an exemplar: when traceID is non-empty
// the latency bucket the request lands in keeps it as its most recent
// exemplar (see Registry.WriteExemplars).
func (m *HTTPMetrics) ObserveTraced(route string, code int, elapsed time.Duration, traceID string) {
	m.reg.Counter("nsdf_http_requests_total",
		"service", m.service, "route", route, "class", statusClass(code)).Inc()
	m.lat.ObserveExemplar(elapsed.Seconds(), traceID)
}

// WithRequestTimeout bounds every request's context with a deadline of d
// before handing it to next — the server-side backstop that keeps a hung
// backend from pinning a handler forever even when the client never
// disconnects. d <= 0 returns next unchanged (timeouts disabled). The
// handler itself must propagate r.Context() for the deadline to bite;
// this repository's dashboard, catalog, and storage handlers all do.
func WithRequestTimeout(next http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
