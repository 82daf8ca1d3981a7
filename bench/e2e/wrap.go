package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/compress"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry/trace"
)

// The wrappers below are the traced run's span boundaries. Each sits at
// an interface the repository already exposes, so a traced stack is the
// production stack with recorders spliced between its layers and no
// edit under internal/. Untraced runs install none of them.

// requestID renders request number n as the 32-hex trace ID the
// serving stack adopts and forwards to the store nodes; requestNo is
// its inverse. This is how a span recorded on a store server finds the
// dashboard request that caused it.
func requestID(n uint64) string { return fmt.Sprintf("%032x", n) }

func requestNo(h http.Header) uint64 {
	id := h.Get(trace.TraceIDHeader)
	if len(id) != trace.IDLen {
		return 0
	}
	n, err := strconv.ParseUint(id[16:], 16, 64)
	if err != nil {
		return 0
	}
	return n
}

// traceHandler records one span around next.
func traceHandler(rec *recorder, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o := rec.begin(r.Context(), name)
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), o)))
		o.end(0)
	})
}

// traceDashboard records the dashboard handler and, inside it, the time
// the handler spends writing the response.
func traceDashboard(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o := rec.begin(r.Context(), "dashboard.handler")
		tw := &timedWriter{ResponseWriter: w, rec: rec, handler: o}
		next.ServeHTTP(tw, r.WithContext(withSpan(r.Context(), o)))
		o.end(tw.n)
	})
}

type timedWriter struct {
	http.ResponseWriter
	rec     *recorder
	handler openSpan
	n       int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	o := w.rec.under(w.handler, "dashboard.write")
	n, err := w.ResponseWriter.Write(p)
	o.end(int64(n))
	w.n += int64(n)
	return n, err
}

// traceStoreServer records a store node's handling of one object
// request, keyed so resolve can join it to the client call.
func traceStoreServer(rec *recorder, node string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o := rec.here(serverSpan)
		o.set(func(s *span) {
			s.Req, s.Node = requestNo(r.Header), node
			switch {
			case r.URL.Path == "/list":
				s.Op, s.Key = "list", r.URL.Query().Get("prefix")
			default:
				s.Op, s.Key = strings.ToLower(r.Method), strings.TrimPrefix(r.URL.Path, "/obj/")
			}
		})
		next.ServeHTTP(w, r)
		o.end(0)
	})
}

// tracedStore records each call to one node's client. Op names match
// the HTTP method the client sends, which is what the server side sees.
type tracedStore struct {
	inner storage.Store
	rec   *recorder
	node  string
}

func (t *tracedStore) begin(ctx context.Context, name, op, key string) openSpan {
	o := t.rec.begin(ctx, name)
	o.set(func(s *span) { s.Node, s.Op, s.Key = t.node, op, key })
	return o
}

// finish closes o. A cancelled call (a hedge loser) is not an error of
// the node.
func finish(o openSpan, n int, err error) {
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, storage.ErrNotExist) {
		o.set(func(s *span) { s.Err = true })
	}
	o.end(int64(n))
}

func (t *tracedStore) Put(ctx context.Context, key string, data []byte) error {
	o := t.begin(ctx, "storage.put", "put", key)
	err := t.inner.Put(ctx, key, data)
	finish(o, len(data), err)
	return err
}

func (t *tracedStore) Get(ctx context.Context, key string) ([]byte, error) {
	o := t.begin(ctx, "storage.get", "get", key)
	data, err := t.inner.Get(ctx, key)
	finish(o, len(data), err)
	return data, err
}

func (t *tracedStore) Delete(ctx context.Context, key string) error {
	o := t.begin(ctx, "storage.delete", "delete", key)
	err := t.inner.Delete(ctx, key)
	finish(o, 0, err)
	return err
}

func (t *tracedStore) Stat(ctx context.Context, key string) (storage.ObjectInfo, error) {
	o := t.begin(ctx, "storage.stat", "head", key)
	info, err := t.inner.Stat(ctx, key)
	finish(o, 0, err)
	return info, err
}

func (t *tracedStore) List(ctx context.Context, prefix string) ([]storage.ObjectInfo, error) {
	o := t.begin(ctx, "storage.list", "list", prefix)
	infos, err := t.inner.List(ctx, prefix)
	finish(o, 0, err)
	return infos, err
}

// tracedBackend sits between idx and the sharded tier. Its self time is
// the router's (plus the thin IDXBackend and Instrumented adapters):
// ring lookup, replica goroutines, hedge timer, fan-out and quorum. It
// also links the codec calls, which have no context, to the calls that
// do: a fetched payload is decoded next, an encoded payload is put next.
type tracedBackend struct {
	inner *storage.IDXBackend
	rec   *recorder
}

func (t *tracedBackend) Get(ctx context.Context, name string) ([]byte, error) {
	o := t.rec.begin(ctx, "shard.get")
	data, err := t.inner.Get(withSpan(ctx, o), name)
	o.end(int64(len(data)))
	t.rec.leave(data, o.parentOf())
	return data, err
}

func (t *tracedBackend) Put(ctx context.Context, name string, data []byte) error {
	o := t.rec.begin(ctx, "shard.put")
	t.rec.adopt(data, o.parentOf())
	err := t.inner.Put(withSpan(ctx, o), name, data)
	o.end(int64(len(data)))
	return err
}

func (t *tracedBackend) List(ctx context.Context, prefix string) ([]string, error) {
	o := t.rec.begin(ctx, "shard.list")
	names, err := t.inner.List(withSpan(ctx, o), prefix)
	o.end(0)
	return names, err
}

// Delete implements idx.Deleter so idx.Create can purge a reused prefix.
func (t *tracedBackend) Delete(ctx context.Context, name string) error {
	o := t.rec.begin(ctx, "shard.delete")
	err := t.inner.Delete(withSpan(ctx, o), name)
	o.end(0)
	return err
}

// tracedCache records every call idx makes into the block cache. It
// offers the same optional faces as cache.Tiered (GetOrFill, Peek,
// Remove) so idx takes the same paths as in production.
type tracedCache struct {
	inner *cache.Tiered
	rec   *recorder
}

var _ idx.FillerCache = (*tracedCache)(nil)

// hitCount is the N a lookup span records: 1 for a hit.
func hitCount(hit bool) int64 {
	if hit {
		return 1
	}
	return 0
}

func (t *tracedCache) Get(key string) (*cache.Block, bool) {
	o := t.rec.here("cache.get")
	blk, ok := t.inner.Get(key)
	o.end(hitCount(ok))
	return blk, ok
}

func (t *tracedCache) Peek(key string) (*cache.Block, bool) {
	o := t.rec.here("cache.peek")
	blk, ok := t.inner.Peek(key)
	o.end(hitCount(ok))
	return blk, ok
}

func (t *tracedCache) Put(key string, data []byte) *cache.Block {
	o := t.rec.here("cache.put")
	blk := t.inner.Put(key, data)
	o.end(int64(len(data)))
	return blk
}

func (t *tracedCache) Remove(key string) {
	o := t.rec.here("cache.remove")
	t.inner.Remove(key)
	o.end(0)
}

// GetOrFill records the outcome in the span's N, so a fill wait
// (filled or coalesced) can be told from a late hit.
func (t *tracedCache) GetOrFill(ctx context.Context, key string, fill func(context.Context) ([]byte, error)) (*cache.Block, cache.Outcome, error) {
	o := t.rec.begin(ctx, "cache.getorfill")
	blk, outcome, err := t.inner.GetOrFill(withSpan(ctx, o), key, fill)
	o.end(int64(outcome))
	return blk, outcome, err
}

// tracedCodecName is the codec name traced datasets record in their
// descriptor; untraced datasets use the repository default.
const tracedCodecName = "bench-traced"

// codecRecorder is where the registered traced codec sends its spans.
// The compress registry is process-global and refuses re-registration,
// so the codec is registered once and pointed at the current recorder.
var (
	codecRecorder atomic.Pointer[recorder]
	codecOnce     sync.Once
)

type tracedCodec struct{ inner compress.Codec }

func (tracedCodec) Name() string { return tracedCodecName }

func (c tracedCodec) Encode(src []byte) ([]byte, error) {
	rec := codecRecorder.Load()
	o := rec.here("compress.encode")
	out, err := c.inner.Encode(src)
	o.end(int64(len(src)))
	rec.leaveWaiting(out, o)
	return out, err
}

func (c tracedCodec) Decode(src []byte, dstSize int) ([]byte, error) {
	rec := codecRecorder.Load()
	o := rec.under(rec.claim(src), "compress.decode")
	out, err := c.inner.Decode(src, dstSize)
	o.end(int64(len(out)))
	return out, err
}

// useTracedCodec registers the traced codec around the default float32
// block codec and directs its spans to rec.
func useTracedCodec(rec *recorder) error {
	inner, err := compress.Lookup(idx.DefaultCodec(idx.Float32))
	if err != nil {
		return err
	}
	codecOnce.Do(func() { compress.Register(tracedCodec{inner: inner}) })
	codecRecorder.Store(rec)
	return nil
}

// traceEntry records the outermost server-side span of a dashboard
// request and stamps it with the request number, so resolve can hang it
// under the client's span.
func traceEntry(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o := rec.here("telemetry.tracing")
		o.set(func(s *span) { s.Req = requestNo(r.Header) })
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), o)))
		o.end(0)
	})
}
