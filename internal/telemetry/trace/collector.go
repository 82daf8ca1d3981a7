package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefaultCapacity is the ring size used when NewCollector is given a
// non-positive capacity: enough history to inspect a burst of slow
// requests, small enough (≤ DefaultCapacity × MaxSpans spans) to be an
// afterthought next to the block cache.
const DefaultCapacity = 256

// Collector retains the most recent completed traces in a bounded ring
// buffer and serves them at /debug/traces. Safe for concurrent use.
type Collector struct {
	mu    sync.Mutex
	buf   []*TraceData
	added uint64
	now   func() time.Time
	node  string
}

// NewCollector returns a collector retaining up to capacity traces
// (DefaultCapacity when capacity <= 0). Once full, each new trace
// overwrites the oldest one.
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{buf: make([]*TraceData, capacity), now: time.Now}
}

// SetClock replaces the collector's time source — tests drive traces
// with a fake clock through this. Call it before starting traces.
func (c *Collector) SetClock(now func() time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

// clock returns the collector's current time source.
func (c *Collector) clock() func() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// SetNode names the process this collector runs in (e.g. the store's
// -node-name). Subsequent traces carry it in TraceData.Node and as a
// "node" attribute on their root spans, so spans pulled from several
// collectors stay attributable after federated assembly.
func (c *Collector) SetNode(name string) {
	c.mu.Lock()
	c.node = name
	c.mu.Unlock()
}

// Node returns the collector's configured node name.
func (c *Collector) Node() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node
}

// StartTrace begins a new trace with the given ID (minting a fresh one
// when id is empty or malformed) and returns its root span. Ending the
// root span publishes the completed trace into the ring. The name is the
// root span's operation name — the tracing middleware uses the HTTP
// route.
func (c *Collector) StartTrace(id, name string, attrs ...Attr) *Span {
	if !ValidID(id) {
		id = NewID()
	}
	tr := &Trace{id: id, col: c, now: c.clock(), node: c.Node()}
	tr.start = tr.now()
	tr.lastSpan = 1
	if tr.node != "" {
		attrs = append(attrs, Str("node", tr.node))
	}
	return &Span{tr: tr, name: name, id: "1", start: tr.start, root: true, attrs: attrs}
}

// publish inserts a completed trace, evicting the oldest when full.
func (c *Collector) publish(t *TraceData) {
	c.mu.Lock()
	t.seq = c.added
	c.buf[c.added%uint64(len(c.buf))] = t
	c.added++
	c.mu.Unlock()
}

// Snapshot returns the retained traces, newest first. The returned
// slice and its TraceData are immutable snapshots safe to read without
// locks.
func (c *Collector) Snapshot() []*TraceData {
	c.mu.Lock()
	out := make([]*TraceData, 0, len(c.buf))
	for _, t := range c.buf {
		if t != nil {
			out = append(out, t)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	return out
}

// Find returns the retained trace with the given ID, or nil.
func (c *Collector) Find(id string) *TraceData {
	for _, t := range c.Snapshot() {
		if t.TraceID == id {
			return t
		}
	}
	return nil
}

// Filter narrows a Snapshot: traces shorter than minDur, or (when
// dataset is non-empty) without a span attributed to that dataset, are
// dropped.
func Filter(traces []*TraceData, minDur time.Duration, dataset string) []*TraceData {
	out := make([]*TraceData, 0, len(traces))
	for _, t := range traces {
		if t.Duration < minDur {
			continue
		}
		if dataset != "" && !t.HasAttr("dataset", dataset) {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Handler serves the collector at /debug/traces.
//
// Query parameters:
//
//	format=json|text  response encoding (default text)
//	trace=<id>        exact trace lookup (id= is an accepted alias)
//	min=<duration>    keep traces at least this long (e.g. min=250ms)
//	dataset=<name>    keep traces touching this dataset
//	limit=<n>         at most n traces, newest first (default 50)
func (c *Collector) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var traces []*TraceData
		id := q.Get("trace")
		if id == "" {
			id = q.Get("id")
		}
		if id != "" {
			if t := c.Find(id); t != nil {
				traces = []*TraceData{t}
			}
		} else {
			minDur := time.Duration(0)
			if ms := q.Get("min"); ms != "" {
				d, err := time.ParseDuration(ms)
				if err != nil {
					http.Error(w, "trace: bad min duration: "+err.Error(), http.StatusBadRequest)
					return
				}
				minDur = d
			}
			traces = Filter(c.Snapshot(), minDur, q.Get("dataset"))
			limit := 50
			if ls := q.Get("limit"); ls != "" {
				n, err := strconv.Atoi(ls)
				if err != nil || n < 1 {
					http.Error(w, "trace: bad limit", http.StatusBadRequest)
					return
				}
				limit = n
			}
			if len(traces) > limit {
				traces = traces[:limit]
			}
		}
		if q.Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(traces)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range traces {
			WriteText(w, t)
		}
		if len(traces) == 0 {
			fmt.Fprintln(w, "no traces match")
		}
	})
}

// WriteText renders one trace human-readably: a header line followed by
// the span tree, children indented under parents in start order. Spans
// whose parent is not in the snapshot (a federated merge with a gap, or
// a caller whose span was dropped at the per-trace cap) render as extra
// roots rather than disappearing.
func WriteText(w io.Writer, t *TraceData) {
	fmt.Fprintf(w, "trace %s ", t.TraceID)
	if t.Node != "" {
		fmt.Fprintf(w, " node=%s", t.Node)
	}
	fmt.Fprintf(w, " start=%s  duration=%s  spans=%d",
		t.Start.Format(time.RFC3339Nano), t.Duration, len(t.Spans))
	if t.DroppedSpans > 0 {
		fmt.Fprintf(w, "  dropped=%d", t.DroppedSpans)
	}
	fmt.Fprintln(w)

	known := make(map[string]bool, len(t.Spans))
	for i := range t.Spans {
		known[t.Spans[i].ID] = true
	}
	children := make(map[string][]*SpanData, len(t.Spans))
	for i := range t.Spans {
		sp := &t.Spans[i]
		parent := sp.Parent
		if parent != "" && (!known[parent] || parent == sp.ID) {
			parent = "" // orphan: surface it as a root
		}
		children[parent] = append(children[parent], sp)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	}
	var emit func(parent string, depth int)
	emit = func(parent string, depth int) {
		for _, sp := range children[parent] {
			fmt.Fprintf(w, "%s%-14s %12s", strings.Repeat("  ", depth+1), sp.Name, sp.Duration)
			if len(sp.Attrs) > 0 {
				keys := make([]string, 0, len(sp.Attrs))
				for k := range sp.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(w, "  %s=%s", k, sp.Attrs[k])
				}
			}
			fmt.Fprintln(w)
			emit(sp.ID, depth+1)
		}
	}
	emit("", 0)
}
