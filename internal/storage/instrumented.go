package storage

import (
	"context"
	"errors"
	"time"

	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/trace"
)

// Instrumented wraps a Store and records per-operation telemetry: op and
// error counts, payload bytes by direction, and an operation latency
// histogram, all labelled with a backend name. When the request context
// carries an active trace, each operation additionally records a
// storage.<op> span annotated with the backend label, so /debug/traces
// shows exactly which store the time went to. Layer it outermost so the
// histogram captures the full cost (simulated WAN delay, the store
// itself):
//
//	store := storage.NewInstrumented(storage.NewConditioned(inner, profile, seed), reg, "seal")
type Instrumented struct {
	inner   Store
	backend string

	ops  map[string]*telemetry.Counter
	errs map[string]*telemetry.Counter
	up   *telemetry.Counter
	down *telemetry.Counter
	lat  *telemetry.Histogram
}

// instrumentedSpanNames maps each op to a constant span name, so the
// per-op trace records allocate no strings.
var instrumentedSpanNames = map[string]string{
	"get":    "storage.get",
	"put":    "storage.put",
	"delete": "storage.delete",
	"stat":   "storage.stat",
	"list":   "storage.list",
}

// instrumentedOps are the Store operations tracked per backend.
var instrumentedOps = []string{"get", "put", "delete", "stat", "list"}

// NewInstrumented wraps inner, registering its metrics under the given
// backend label in reg.
func NewInstrumented(inner Store, reg *telemetry.Registry, backend string) *Instrumented {
	in := &Instrumented{
		inner:   inner,
		backend: backend,
		ops:     make(map[string]*telemetry.Counter, len(instrumentedOps)),
		errs:    make(map[string]*telemetry.Counter, len(instrumentedOps)),
		up:      reg.Counter("nsdf_storage_bytes_total", "backend", backend, "direction", "up"),
		down:    reg.Counter("nsdf_storage_bytes_total", "backend", backend, "direction", "down"),
		lat:     reg.Histogram("nsdf_storage_op_seconds", "backend", backend),
	}
	for _, op := range instrumentedOps {
		in.ops[op] = reg.Counter("nsdf_storage_ops_total", "backend", backend, "op", op)
		in.errs[op] = reg.Counter("nsdf_storage_errors_total", "backend", backend, "op", op)
	}
	return in
}

// record books one finished operation. Missing objects are an expected
// outcome of Get/Stat probes, not a backend failure, so ErrNotExist does
// not count as an error.
func (in *Instrumented) record(ctx context.Context, op string, start time.Time, err error) {
	in.ops[op].Inc()
	if err != nil && !errors.Is(err, ErrNotExist) {
		in.errs[op].Inc()
	}
	if trace.Active(ctx) {
		end := time.Now()
		in.lat.ObserveExemplar(end.Sub(start).Seconds(), trace.ID(ctx))
		trace.Record(ctx, instrumentedSpanNames[op], start, end,
			trace.Str("backend", in.backend))
		return
	}
	in.lat.ObserveSince(start)
}

// Put implements Store.
func (in *Instrumented) Put(ctx context.Context, key string, data []byte) error {
	start := time.Now()
	err := in.inner.Put(ctx, key, data)
	in.record(ctx, "put", start, err)
	if err == nil {
		in.up.Add(int64(len(data)))
	}
	return err
}

// Get implements Store.
func (in *Instrumented) Get(ctx context.Context, key string) ([]byte, error) {
	start := time.Now()
	data, err := in.inner.Get(ctx, key)
	in.record(ctx, "get", start, err)
	if err == nil {
		in.down.Add(int64(len(data)))
	}
	return data, err
}

// Delete implements Store.
func (in *Instrumented) Delete(ctx context.Context, key string) error {
	start := time.Now()
	err := in.inner.Delete(ctx, key)
	in.record(ctx, "delete", start, err)
	return err
}

// Stat implements Store.
func (in *Instrumented) Stat(ctx context.Context, key string) (ObjectInfo, error) {
	start := time.Now()
	info, err := in.inner.Stat(ctx, key)
	in.record(ctx, "stat", start, err)
	return info, err
}

// List implements Store.
func (in *Instrumented) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	start := time.Now()
	infos, err := in.inner.List(ctx, prefix)
	in.record(ctx, "list", start, err)
	return infos, err
}
