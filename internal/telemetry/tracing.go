package telemetry

import (
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"time"

	"nsdfgo/internal/telemetry/flight"
	"nsdfgo/internal/telemetry/trace"
)

// TracingOptions configures WithTracing.
type TracingOptions struct {
	// Service labels the root span (e.g. "dashboard", "store").
	Service string
	// SlowRequest is the duration at or above which a completed request
	// emits a one-line structured summary of its worst spans. Zero
	// disables slow-request logging.
	SlowRequest time.Duration
	// Logger receives the slow-request summaries; nil uses slog.Default().
	Logger *slog.Logger
	// Flight, when non-nil, receives a KindSlowRequest event for every
	// request at or above SlowRequest.
	Flight *flight.Recorder
}

// WithTracing wraps next so every request runs under a root span: a
// well-formed inbound X-NSDF-Trace-Id is adopted (malformed or missing
// IDs are replaced with a fresh one), the effective ID is echoed on the
// response, and the completed trace is published to col. An inbound
// X-NSDF-Trace-Parent (a peer hop — see trace.Inject) marks the root
// span as the continuation of the remote caller's span, so federated
// assembly can stitch this process's spans under it. Requests slower
// than opts.SlowRequest additionally log a structured summary naming
// the worst spans — and book a flight-recorder event when opts.Flight
// is wired — so sweep logs point at the guilty stage without a
// /debug/traces round trip.
func WithTracing(next http.Handler, col *trace.Collector, opts TracingOptions) http.Handler {
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(trace.TraceIDHeader)
		if !trace.ValidID(id) {
			id = trace.NewID()
		}
		w.Header().Set(trace.TraceIDHeader, id)
		root := col.StartTrace(id, "http "+r.URL.Path,
			trace.Str("service", opts.Service),
			trace.Str("method", r.Method))
		if parent, ok := trace.ParseParent(r.Header.Get(trace.ParentHeader)); ok {
			root.SetRemoteParent(parent)
		}
		rec := NewStatusRecorder(w)
		next.ServeHTTP(rec, r.WithContext(trace.NewContext(r.Context(), root)))
		root.SetAttr(trace.Int("status", int64(rec.Code)))
		root.End()
		if opts.SlowRequest <= 0 {
			return
		}
		if data := root.Finished(); data != nil && data.Duration >= opts.SlowRequest {
			logger.Warn("slow request",
				slog.String("trace", data.TraceID),
				slog.String("service", opts.Service),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.Code),
				slog.Duration("duration", data.Duration),
				slog.String("worst", WorstSpans(data, 3)))
			opts.Flight.Record(flight.KindSlowRequest, data.TraceID,
				"%s %s status=%d duration=%s worst=%s",
				r.Method, r.URL.Path, rec.Code, data.Duration, WorstSpans(data, 3))
		}
	})
}

// WorstSpans renders the n longest non-root spans of a trace as
// "name=duration" pairs — the payload of the slow-request log line.
func WorstSpans(data *trace.TraceData, n int) string {
	spans := make([]trace.SpanData, 0, len(data.Spans))
	for _, sp := range data.Spans {
		if sp.Parent != "" { // skip the root span: it is the request itself
			spans = append(spans, sp)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Duration > spans[j].Duration })
	if len(spans) > n {
		spans = spans[:n]
	}
	var b strings.Builder
	for i, sp := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sp.Name)
		b.WriteByte('=')
		b.WriteString(sp.Duration.String())
	}
	return b.String()
}
