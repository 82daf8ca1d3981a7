// Package trace is the request-scoped tracing substrate of the NSDF
// serving stack: a zero-dependency, context-carried span tracer that
// follows one request across the dashboard → query → IDX → storage hops.
// The telemetry package's WithTracing middleware mints (or adopts) a
// trace ID per HTTP request and plants a root span in the request
// context; every layer below starts child spans off that context, so a
// completed trace reconstructs exactly where a slow read spent its time
// — plan vs block fetch vs decode vs assemble vs the object store.
//
// The package is deliberately tiny and stdlib-only. A span costs a
// handful of allocations and two clock reads; code running without an
// active trace in its context pays one context lookup and nothing else
// (Start returns a nil *Span whose methods all no-op). Completed traces
// land in a bounded ring buffer (Collector) exported at /debug/traces.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// IDLen is the length of a trace ID: 16 random bytes, lowercase hex.
const IDLen = 32

// fallbackSeq de-duplicates fallback IDs minted when crypto/rand fails.
var fallbackSeq atomic.Uint64

// NewID returns a fresh 32-character lowercase-hex trace ID.
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; keep a
		// deterministic-but-unique fallback rather than panicking in the
		// serving path.
		binary.BigEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
		binary.BigEndian.PutUint64(b[8:], fallbackSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// ValidID reports whether s is a well-formed trace ID: exactly 32
// lowercase hex characters. Inbound X-NSDF-Trace-Id headers that fail
// this check are rejected and replaced with a fresh ID.
func ValidID(s string) bool {
	if len(s) != IDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Attr is one key/value annotation on a span. Values are rendered to
// strings at construction so snapshotting a span never chases live
// pointers.
type Attr struct {
	// Key names the attribute (e.g. "dataset", "blocks", "bytes").
	Key string
	// Value is the rendered attribute value.
	Value string
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// SpanData is the immutable snapshot of one completed span.
type SpanData struct {
	// Name identifies the operation (e.g. "idx.fetch", "storage.get").
	Name string `json:"name"`
	// ID is the span's trace-local identifier.
	ID string `json:"id"`
	// Parent is the parent span's ID; empty for the root span.
	Parent string `json:"parent,omitempty"`
	// Start is when the span began.
	Start time.Time `json:"start"`
	// Duration is the span's elapsed time in nanoseconds. For the
	// accumulated pipeline-stage spans (idx.fetch/decode/assemble) this is
	// busy time summed across workers, which can exceed the wall time of
	// the enclosing span on parallel fetches.
	Duration time.Duration `json:"duration_ns"`
	// Attrs carries the span's annotations.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// TraceData is the immutable snapshot of one completed trace.
type TraceData struct {
	// TraceID is the 32-hex-character request identifier.
	TraceID string `json:"trace_id"`
	// Node is the fleet-wide name of the process that recorded this
	// snapshot (Collector.SetNode); empty on unnamed collectors.
	// Federated assembly namespaces span IDs with it.
	Node string `json:"node,omitempty"`
	// Start is when the root span began.
	Start time.Time `json:"start"`
	// Duration is the root span's elapsed time.
	Duration time.Duration `json:"duration_ns"`
	// Spans lists every recorded span in completion order; the root span
	// is last (it completes last by construction).
	Spans []SpanData `json:"spans"`
	// DroppedSpans counts spans discarded after the per-trace cap
	// (MaxSpans) was reached.
	DroppedSpans int `json:"dropped_spans,omitempty"`

	// seq is the collector's insertion sequence, for eviction-order
	// snapshots.
	seq uint64
}

// HasAttr reports whether any span carries the attribute key=value.
func (t *TraceData) HasAttr(key, value string) bool {
	for i := range t.Spans {
		if t.Spans[i].Attrs[key] == value {
			return true
		}
	}
	return false
}

// MaxSpans bounds the spans retained per trace: a pathological request
// touching thousands of blocks must not turn its trace into an unbounded
// allocation. Spans past the cap are counted in DroppedSpans.
const MaxSpans = 512

// Trace accumulates the spans of one request until the root span ends.
// All methods are safe for concurrent use — the IDX fetch pool records
// spans from several goroutines at once.
type Trace struct {
	id    string
	col   *Collector
	now   func() time.Time
	start time.Time
	node  string

	mu       sync.Mutex
	spans    []SpanData
	dropped  int
	depth    int
	lastSpan uint64
	finished *TraceData
}

// record appends one completed span, honouring the per-trace cap.
func (t *Trace) record(sd SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished != nil {
		return // late span after the root ended; drop silently
	}
	if len(t.spans) >= MaxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, sd)
}

// nextSpanID allocates a trace-local span identifier.
func (t *Trace) nextSpanID() string {
	t.mu.Lock()
	t.lastSpan++
	n := t.lastSpan
	t.mu.Unlock()
	return strconv.FormatUint(n, 16)
}

// finish snapshots the trace and publishes it to the collector.
func (t *Trace) finish(end time.Time) *TraceData {
	t.mu.Lock()
	if t.finished != nil {
		d := t.finished
		t.mu.Unlock()
		return d
	}
	d := &TraceData{
		TraceID:      t.id,
		Node:         t.node,
		Start:        t.start,
		Duration:     end.Sub(t.start),
		Spans:        t.spans,
		DroppedSpans: t.dropped,
	}
	t.spans = nil
	t.finished = d
	t.mu.Unlock()
	if t.col != nil {
		t.col.publish(d)
	}
	return d
}

// Span is one in-flight operation within a trace. The zero of usefulness
// is a nil *Span: every method no-ops, so instrumented code needs no
// "is tracing on?" branches.
type Span struct {
	tr     *Trace
	name   string
	id     string
	parent string
	start  time.Time
	root   bool

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// SetAttr appends attributes to the span. Safe to call from the goroutine
// that owns the span at any point before End.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// TraceID returns the owning trace's ID, or "" on a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// ID returns the span's trace-local identifier, or "" on a nil span —
// the value Inject forwards so a peer can name its caller exactly.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Node returns the owning collector's fleet-wide node name, or "".
func (s *Span) Node() string {
	if s == nil {
		return ""
	}
	return s.tr.node
}

// Depth returns the trace's peer-hop depth: 0 in the process that
// minted the trace, +1 per hop (set by SetRemoteParent on the root span
// of each downstream process).
func (s *Span) Depth() int {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.tr.depth
}

// SetRemoteParent marks the span's trace as a continuation of a remote
// span: the trace's hop depth becomes the caller's depth + 1 and the
// span is annotated with the caller's node-namespaced span reference,
// which federated assembly (Merge) uses to graft this process's spans
// under the exact remote span that issued the request. The tracing
// middleware calls this on the root span when an inbound request
// carries a valid ParentHeader.
func (s *Span) SetRemoteParent(p Parent) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.depth = p.Depth + 1
	s.tr.mu.Unlock()
	s.SetAttr(Str("remote_parent", p.Ref()), Int("depth", int64(p.Depth+1)))
}

// End completes the span and records it into its trace. Ending the root
// span finalises the whole trace and publishes it to the collector.
// Calling End twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	end := s.tr.now()
	s.tr.record(SpanData{
		Name:     s.name,
		ID:       s.id,
		Parent:   s.parent,
		Start:    s.start,
		Duration: end.Sub(s.start),
		Attrs:    attrMap(attrs),
	})
	if s.root {
		s.tr.finish(end)
	}
}

// Finished returns the completed trace snapshot after the root span has
// ended; nil before that, and nil on non-root spans. The tracing
// middleware uses this for slow-request summaries without re-querying
// the collector.
func (s *Span) Finished() *TraceData {
	if s == nil || !s.root {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.tr.finished
}

// attrMap renders an attribute list into the snapshot map form.
func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}
