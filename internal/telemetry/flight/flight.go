// Package flight is the anomaly flight recorder of the NSDF serving
// stack: a fixed-size, lock-free ring of the most recent anomalous
// events — shed requests, hedge fires, replica failovers, slow
// requests, monitoring alerts — each stamped with the trace ID it
// happened under. When something goes wrong in a classroom deployment
// the interesting history is almost always the last few hundred
// anomalies, not a full log: the ring is served at /debug/flightrecorder
// on every server and dumped to the log on graceful shutdown, so the
// evidence survives even when nobody was watching the metrics.
//
// The package is stdlib-only and imports nothing else in this module,
// so any layer can record into it. Recording is wait-free (one atomic
// add plus one atomic pointer store) and every method is safe on a nil
// *Recorder, so wiring is optional everywhere.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// Kind classifies an anomalous event.
type Kind string

// The event taxonomy. Producers across the stack agree on these so the
// ring can be filtered by kind (see Handler's kind= parameter).
const (
	// KindShed is a request rejected by admission control (429).
	KindShed Kind = "shed"
	// KindHedgeFired is a hedged read launched because the current
	// replica exceeded -hedge-after.
	KindHedgeFired Kind = "hedge_fired"
	// KindFailover is a replica lost mid-operation (read failover or a
	// degraded replicated write).
	KindFailover Kind = "replica_failover"
	// KindSlowRequest is a request slower than the server's
	// -slow-request threshold.
	KindSlowRequest Kind = "slow_request"
	// KindAlert is a monitoring alert (the network monitor's
	// degradation detector).
	KindAlert Kind = "alert"
)

// Event is one recorded anomaly.
type Event struct {
	// Seq is the recorder-wide sequence number (1-based, monotonic).
	Seq uint64 `json:"seq"`
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Kind classifies the anomaly.
	Kind Kind `json:"kind"`
	// Node names the process that recorded the event (SetNode).
	Node string `json:"node,omitempty"`
	// TraceID links the event to its request trace, when one was
	// active — paste it into /debug/traces?federate=1 on the dashboard.
	TraceID string `json:"trace_id,omitempty"`
	// Detail is a one-line human-readable description.
	Detail string `json:"detail"`
}

// DefaultCapacity is the ring size used when New is given a
// non-positive capacity.
const DefaultCapacity = 256

// Recorder is the fixed-size event ring. Record is wait-free and safe
// for concurrent use; Snapshot is lock-free and may miss events racing
// with it, which is fine for a debugging aid. All methods no-op on nil.
type Recorder struct {
	slots []atomic.Pointer[Event]
	next  atomic.Uint64
	node  atomic.Pointer[string]
	clock func() time.Time
}

// New returns a recorder retaining the most recent capacity events
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{slots: make([]atomic.Pointer[Event], capacity), clock: time.Now}
}

// SetNode names the process; subsequent events carry it.
func (r *Recorder) SetNode(name string) {
	if r == nil {
		return
	}
	r.node.Store(&name)
}

// SetClock replaces the time source — tests drive deterministic event
// times through this. Call it before the recorder sees traffic.
func (r *Recorder) SetClock(now func() time.Time) {
	if r == nil {
		return
	}
	r.clock = now
}

// Record appends one event to the ring, overwriting the oldest once
// full. detailFormat/args render the Detail line fmt.Sprintf-style.
func (r *Recorder) Record(kind Kind, traceID, detailFormat string, args ...any) {
	if r == nil {
		return
	}
	detail := detailFormat
	if len(args) > 0 {
		detail = fmt.Sprintf(detailFormat, args...)
	}
	node := ""
	if p := r.node.Load(); p != nil {
		node = *p
	}
	ev := &Event{
		Seq:     r.next.Add(1),
		Time:    r.clock(),
		Kind:    kind,
		Node:    node,
		TraceID: traceID,
		Detail:  detail,
	}
	r.slots[(ev.Seq-1)%uint64(len(r.slots))].Store(ev)
}

// Total reports how many events have ever been recorded (including
// overwritten ones). Zero on nil.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Capacity reports the ring size. Zero on nil.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Snapshot returns the retained events, oldest first. Events being
// overwritten concurrently may be skipped. Nil recorders return nil.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	total := r.next.Load()
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if ev := r.slots[i].Load(); ev != nil && ev.Seq <= total {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// writeEvents renders the header line and one line per event.
func (r *Recorder) writeEvents(w io.Writer, events []Event) {
	fmt.Fprintf(w, "flightrecorder  events=%d recorded=%d capacity=%d\n",
		len(events), r.Total(), r.Capacity())
	for _, ev := range events {
		fmt.Fprintf(w, "%6d  %s  %-16s", ev.Seq, ev.Time.Format(time.RFC3339Nano), ev.Kind)
		if ev.Node != "" {
			fmt.Fprintf(w, "  node=%s", ev.Node)
		}
		if ev.TraceID != "" {
			fmt.Fprintf(w, "  trace=%s", ev.TraceID)
		}
		fmt.Fprintf(w, "  %s\n", ev.Detail)
	}
}

// Handler serves the ring at /debug/flightrecorder.
//
// Query parameters:
//
//	format=json|text  response encoding (default text)
//	kind=<kind>       keep only events of this kind
//	trace=<id>        keep only events of this trace
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		events := r.Snapshot()
		if kind := q.Get("kind"); kind != "" {
			events = filter(events, func(ev Event) bool { return string(ev.Kind) == kind })
		}
		if id := q.Get("trace"); id != "" {
			events = filter(events, func(ev Event) bool { return ev.TraceID == id })
		}
		if q.Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(events)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.writeEvents(w, events)
	})
}

// filter keeps the events matching keep.
func filter(events []Event, keep func(Event) bool) []Event {
	out := events[:0]
	for _, ev := range events {
		if keep(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// Dump writes the retained events to the logger, one structured record
// per event — the shutdown path, so a crash-looping or drained server
// leaves its anomaly history in the log.
func (r *Recorder) Dump(logger *slog.Logger) {
	if r == nil || r.Total() == 0 {
		return
	}
	if logger == nil {
		logger = slog.Default()
	}
	events := r.Snapshot()
	logger.Info("flight recorder dump",
		slog.Int("events", len(events)),
		slog.Uint64("recorded", r.Total()))
	for _, ev := range events {
		logger.Info("flight event",
			slog.Uint64("seq", ev.Seq),
			slog.Time("time", ev.Time),
			slog.String("kind", string(ev.Kind)),
			slog.String("trace", ev.TraceID),
			slog.String("detail", ev.Detail))
	}
}
