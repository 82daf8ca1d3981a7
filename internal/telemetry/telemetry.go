// Package telemetry is the operational-metrics substrate of the NSDF
// serving stack. The paper's services are *operated* infrastructure: the
// dashboard and network-monitoring steps exist so that students can watch
// cache hit rates, transfer volumes, and latency while streaming IDX
// blocks (§III, Fig. 5–6). This package gives every layer — storage
// backends, the IDX block engine, the LRU cache, the catalog and
// dashboard HTTP services, and the network monitor — one dependency-free
// place to register counters, gauges, and latency histograms, and one
// Prometheus-style text endpoint to expose them from.
//
// All metric types are safe for concurrent use and allocation-free on the
// hot path: wrappers resolve their series once at construction and then
// touch only atomics.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the exposition type of a metric family.
type Kind string

// Metric family kinds, matching the Prometheus text-format TYPE names.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default histogram upper bounds in seconds, spanning
// 100µs (in-memory block reads) to 10s (cross-country cold fetches).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observations are in
// seconds; buckets are cumulative at exposition time, Prometheus-style.
// Each bucket additionally retains the most recent exemplar — the trace
// ID of the last observation that landed in it (ObserveExemplar) — so a
// suspicious latency bucket links directly to a fetchable trace.
type Histogram struct {
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64
	ex     []atomic.Pointer[Exemplar] // most recent exemplar per bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Exemplar links one observed value to the request trace that produced
// it.
type Exemplar struct {
	// Value is the observed value (seconds, for latency histograms).
	Value float64 `json:"value"`
	// TraceID names the trace active when the value was observed.
	TraceID string `json:"trace_id"`
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
		ex:     make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one value (seconds, for latency histograms).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// ObserveExemplar records one value and, when traceID is non-empty,
// swaps it in as the containing bucket's exemplar. The swap is a single
// lock-free atomic pointer store (last writer wins), so the hot path
// pays one extra allocation and one store over Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.ex[i].Store(&Exemplar{Value: v, TraceID: traceID})
}

// BucketExemplar pairs a bucket's rendered upper bound with its most
// recent exemplar.
type BucketExemplar struct {
	// LE is the bucket's upper bound rendered Prometheus-style
	// ("0.025", "+Inf").
	LE string `json:"le"`
	// Exemplar is the bucket's most recent exemplar.
	Exemplar Exemplar `json:"exemplar"`
}

// Exemplars snapshots the buckets that have an exemplar, in bound
// order.
func (h *Histogram) Exemplars() []BucketExemplar {
	var out []BucketExemplar
	for i := range h.ex {
		e := h.ex[i].Load()
		if e == nil {
			continue
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		out = append(out, BucketExemplar{LE: le, Exemplar: *e})
	}
	return out
}

// Snapshot is a consistent-enough view of a histogram for reporting:
// counts are read atomically per bucket, so a snapshot taken under
// concurrent writes may be mid-update, which is fine for monitoring.
type Snapshot struct {
	// Count is the number of observations.
	Count int64
	// Sum is the total of all observed values.
	Sum float64
	// P50, P95, P99 are estimated percentiles (linear interpolation
	// within the containing bucket).
	P50, P95, P99 float64
}

// Snapshot returns current totals and estimated percentiles.
func (h *Histogram) Snapshot() Snapshot {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := Snapshot{Count: total, Sum: math.Float64frombits(h.sum.Load())}
	if total == 0 {
		return s
	}
	s.P50 = h.quantile(counts, total, 0.50)
	s.P95 = h.quantile(counts, total, 0.95)
	s.P99 = h.quantile(counts, total, 0.99)
	return s
}

// quantile estimates the q-quantile from bucket counts by interpolating
// linearly inside the containing bucket. Values in the +Inf bucket clamp
// to the largest finite bound.
func (h *Histogram) quantile(counts []int64, total int64, q float64) float64 {
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		if i == len(h.bounds) { // +Inf bucket: clamp
			return h.bounds[len(h.bounds)-1]
		}
		hi := h.bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

// series is one labelled instance inside a family.
type series struct {
	labels string // canonical rendered form: {k="v",...} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	kind   Kind
	series map[string]*series
	order  []string // label signatures in registration order, sorted at expose
}

// Registry holds metric families and renders them as a text exposition.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string
}

// NewRegistry returns an empty registry. Family names are not checked
// here: the metricname analyzer (internal/lint) holds every one to an
// nsdf_-prefixed constant at `make lint` time.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSig renders labels (alternating key, value) canonically, sorted by
// key. Panics on an odd-length labels list — that is a programming error
// at wiring time, not a runtime condition.
func labelSig(labels []string) string {
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be key/value pairs")
	}
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns (creating if needed) the series for name+labels,
// enforcing kind consistency within a family.
func (r *Registry) lookup(name string, kind Kind, labels []string) *series {
	sig := labelSig(labels)
	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if s, ok := f.series[sig]; ok && f.kind == kind {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: sig}
		switch kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = newHistogram(nil)
		}
		f.series[sig] = s
		f.order = append(f.order, sig)
		sort.Strings(f.order)
	}
	return s
}

// Counter returns the counter for name with the given key/value label
// pairs, creating it on first use. Repeated calls with the same name and
// labels return the same counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, KindCounter, labels).c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, KindGauge, labels).g
}

// Histogram returns the histogram for name+labels with the default
// latency buckets, creating it on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.lookup(name, KindHistogram, labels).h
}

// CounterFunc registers a counter series whose value is computed at
// exposition time — the adapter shape for components that already keep
// their own counters (e.g. cache.Tiered). Re-registering replaces fn.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...string) {
	s := r.lookup(name, KindCounter, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge series computed at exposition time.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	s := r.lookup(name, KindGauge, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// SumFamily sums the current values of every counter/gauge series under
// name (0 when absent). For histogram families it sums observation
// counts. The cmd-level one-line summaries aggregate with this.
func (r *Registry) SumFamily(name string) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.families[name]
	if !ok {
		return 0
	}
	var total float64
	for _, s := range f.series {
		switch {
		case s.fn != nil:
			total += s.fn()
		case s.c != nil:
			total += float64(s.c.Value())
		case s.g != nil:
			total += s.g.Value()
		case s.h != nil:
			total += float64(s.h.Snapshot().Count)
		}
	}
	return total
}

// FamilyQuantiles merges every histogram series under name and returns
// the estimated (p50, p95, p99). ok is false when the family is absent,
// not a histogram, or has no observations.
func (r *Registry) FamilyQuantiles(name string) (p50, p95, p99 float64, ok bool) {
	r.mu.RLock()
	f, present := r.families[name]
	if !present || f.kind != KindHistogram {
		r.mu.RUnlock()
		return 0, 0, 0, false
	}
	merged := newHistogram(nil)
	var total int64
	for _, s := range f.series {
		for i := range s.h.counts {
			n := s.h.counts[i].Load()
			merged.counts[i].Add(n)
			total += n
		}
	}
	r.mu.RUnlock()
	if total == 0 {
		return 0, 0, 0, false
	}
	counts := make([]int64, len(merged.counts))
	for i := range merged.counts {
		counts[i] = merged.counts[i].Load()
	}
	return merged.quantile(counts, total, 0.50),
		merged.quantile(counts, total, 0.95),
		merged.quantile(counts, total, 0.99), true
}
