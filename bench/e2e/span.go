package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Names are
// "<layer>.<what>", so the layer a span's self time belongs to is the
// part of its name before the first dot.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the recorder's spans, -1 for none
	Req    uint64 `json:"req"`    // request number, 0 when inherited from the parent
	N      int64  `json:"n"`      // payload bytes, a hit count or an outcome code

	// Node, Op and Key identify a storage operation so the span a store
	// server records can be joined to the client call that caused it.
	Node string `json:"node,omitempty"`
	Op   string `json:"op,omitempty"`
	Key  string `json:"key,omitempty"`
	Err  bool   `json:"err,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps every span of a traced run in memory. A span's parent
// is the span its context carries: every wrapper that has a context
// hands a derived one down, and the repository threads contexts from
// the HTTP request to the store client. Three boundaries have no
// context and are linked otherwise:
//
//   - Codec.Decode receives the very slice Backend.Get returned, and
//     Backend.Put receives the very slice Codec.Encode returned, so the
//     wrappers hand the parent over keyed by the slice (handoff);
//   - BlockCache.Peek/Get/Put/Remove are leaves of about a microsecond;
//     resolve hangs them under a read that was in progress;
//   - a store server's span is joined to the client call by request
//     number, node, operation and key.
type recorder struct {
	epoch   time.Time
	enabled atomic.Bool // off: nothing is recorded

	mu      sync.Mutex
	spans   []span
	handoff map[*byte]handed
}

// handed is what one wrapper leaves for the next call on the same
// payload: the parent to use, or a span still waiting for its parent.
type handed struct {
	parent  int32
	waiting int32
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), handoff: make(map[*byte]handed)}
	r.enabled.Store(true)
	return r
}

// openSpan is the handle begin returns; the zero value is a no-op.
type openSpan struct {
	rec *recorder
	idx int32
}

type spanKey struct{}

// withSpan returns ctx carrying o as the parent of spans begun under it.
func withSpan(ctx context.Context, o openSpan) context.Context {
	if o.rec == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, o.idx)
}

// begin opens a span whose parent is the span ctx carries, if any.
func (r *recorder) begin(ctx context.Context, name string) openSpan {
	parent := int32(-1)
	if p, ok := ctx.Value(spanKey{}).(int32); ok {
		parent = p
	}
	return r.open(name, parent)
}

// here opens a span at a boundary that has no context; resolve finds
// its parent.
func (r *recorder) here(name string) openSpan { return r.open(name, -1) }

// under opens a span with an explicit parent (none: as here).
func (r *recorder) under(parent openSpan, name string) openSpan {
	if parent.rec == nil {
		return r.open(name, -1)
	}
	return r.open(name, parent.idx)
}

func (r *recorder) open(name string, parent int32) openSpan {
	if r == nil || !r.enabled.Load() {
		return openSpan{}
	}
	r.mu.Lock()
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: int64(time.Since(r.epoch))})
	r.mu.Unlock()
	return openSpan{rec: r, idx: idx}
}

// end closes the span, recording n.
func (o openSpan) end(n int64) {
	if o.rec == nil {
		return
	}
	now := int64(time.Since(o.rec.epoch))
	o.rec.mu.Lock()
	s := &o.rec.spans[o.idx]
	s.End, s.N = now, n
	o.rec.mu.Unlock()
}

// set annotates an open span.
func (o openSpan) set(fn func(*span)) {
	if o.rec == nil {
		return
	}
	o.rec.mu.Lock()
	fn(&o.rec.spans[o.idx])
	o.rec.mu.Unlock()
}

// parentOf returns o's parent as a handle.
func (o openSpan) parentOf() openSpan {
	if o.rec == nil {
		return openSpan{}
	}
	o.rec.mu.Lock()
	defer o.rec.mu.Unlock()
	if p := o.rec.spans[o.idx].Parent; p >= 0 {
		return openSpan{rec: o.rec, idx: p}
	}
	return openSpan{}
}

// leave notes that the next context-free call on payload belongs under
// parent, and claim is that call asking for it. When the context-free
// call comes first (an encode precedes its put) it waits with
// leaveWaiting, and adopt gives it the parent afterwards.
func (r *recorder) leave(payload []byte, parent openSpan) {
	if parent.rec == nil || len(payload) == 0 {
		return
	}
	r.mu.Lock()
	r.handoff[&payload[0]] = handed{parent: parent.idx, waiting: -1}
	r.mu.Unlock()
}

func (r *recorder) claim(payload []byte) openSpan {
	if r == nil || !r.enabled.Load() || len(payload) == 0 {
		return openSpan{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.handoff[&payload[0]]
	if !ok || h.parent < 0 {
		return openSpan{}
	}
	delete(r.handoff, &payload[0])
	return openSpan{rec: r, idx: h.parent}
}

func (r *recorder) leaveWaiting(payload []byte, waiting openSpan) {
	if waiting.rec == nil || len(payload) == 0 {
		return
	}
	r.mu.Lock()
	r.handoff[&payload[0]] = handed{parent: -1, waiting: waiting.idx}
	r.mu.Unlock()
}

func (r *recorder) adopt(payload []byte, parent openSpan) {
	if parent.rec == nil || len(payload) == 0 {
		return
	}
	r.mu.Lock()
	if h, ok := r.handoff[&payload[0]]; ok && h.waiting >= 0 {
		r.spans[h.waiting].Parent = parent.idx
		delete(r.handoff, &payload[0])
	}
	r.mu.Unlock()
}

// take returns the recorded spans and resets the recorder for the next
// pass. Spans still open (a hedge loser not yet cancelled) are dropped.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	r.handoff = make(map[*byte]handed)
	closed := out[:0]
	remap := make([]int32, len(out))
	for i, s := range out {
		if s.End == 0 {
			remap[i] = -1
			continue
		}
		remap[i] = int32(len(closed))
		closed = append(closed, s)
	}
	for i := range closed {
		if p := closed[i].Parent; p >= 0 {
			closed[i].Parent = remap[p]
		}
	}
	return closed
}

// serverSpan names the spans store servers record.
const serverSpan = "storage.serve"

type joinKey struct {
	req           uint64
	node, op, key string
}

// isRoot reports whether a parentless span is one the harness opened
// around a whole request (and numbered itself).
func isRoot(s *span) bool {
	l := layerOf(s.Name)
	return s.Req != 0 && (l == "loadgen" || l == "direct")
}

// hostsCacheCalls lists the spans directly under which idx calls the
// block cache without a context.
var hostsCacheCalls = map[string]bool{
	"dashboard.handler": true, "direct.query": true, "direct.idx": true, "idx.read": true,
}

// resolve fills in the parents the recorder could not know while
// recording, then propagates request numbers from roots to descendants.
//
//   - The dashboard's outermost server span, which read its request
//     number from the trace header, hangs under the client's root span
//     of that number.
//   - A store-server span becomes a child of the client-side storage
//     span of the same request, node, operation and key that contains it.
//   - A context-free cache call hangs under a span of hostsCacheCalls
//     that contains it. With two requests in flight that can be the
//     other request's; the calls take about a microsecond and have no
//     children, so the layers' totals do not notice.
func resolve(spans []span) {
	roots := make(map[uint64]int32)
	var hosts []int32
	for i := range spans {
		s := &spans[i]
		if s.Parent < 0 && isRoot(s) {
			roots[s.Req] = int32(i)
		}
		if hostsCacheCalls[s.Name] {
			hosts = append(hosts, int32(i))
		}
	}
	sort.Slice(hosts, func(a, b int) bool { return spans[hosts[a]].Start < spans[hosts[b]].Start })
	for i := range spans {
		s := &spans[i]
		if s.Parent >= 0 || isRoot(s) || s.Name == serverSpan {
			continue
		}
		if root, ok := roots[s.Req]; ok && s.Req != 0 {
			s.Parent = root
			continue
		}
		if layerOf(s.Name) != "cache" {
			continue
		}
		// The latest-started host containing the call is the innermost.
		from := sort.Search(len(hosts), func(k int) bool { return spans[hosts[k]].Start > s.Start })
		for k := from - 1; k >= 0; k-- {
			if spans[hosts[k]].End >= s.End {
				s.Parent = hosts[k]
				break
			}
		}
	}
	// Request numbers flow down before the join below needs them.
	req := func(i int32) uint64 {
		for ; i >= 0; i = spans[i].Parent {
			if spans[i].Req != 0 {
				return spans[i].Req
			}
		}
		return 0
	}
	clientCalls := make(map[joinKey][]int32)
	for i := range spans {
		s := &spans[i]
		if s.Node != "" && s.Name != serverSpan {
			k := joinKey{req(int32(i)), s.Node, s.Op, s.Key}
			clientCalls[k] = append(clientCalls[k], int32(i))
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent >= 0 || s.Name != serverSpan {
			continue
		}
		for _, c := range clientCalls[joinKey{s.Req, s.Node, s.Op, s.Key}] {
			if spans[c].Start <= s.Start && s.End <= spans[c].End {
				s.Parent = c
				break
			}
		}
	}
	for i := range spans {
		if spans[i].Req == 0 {
			spans[i].Req = req(int32(i))
		}
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Children may overlap one another
// (replicated puts, hedged gets, write workers), so the covered part is
// the union of their intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerOf returns the layer a span's self time is booked to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
