package dashboard

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"nsdfgo/internal/dem"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/telemetry/trace"
)

// failingWriter is a ResponseWriter whose connection breaks after it
// has taken limit body bytes, as when the client goes away mid-download.
type failingWriter struct {
	header http.Header
	limit  int
	taken  int
	broken bool
	after  int // writes attempted once broken
}

var errClientGone = errors.New("write tcp: broken pipe")

func (w *failingWriter) Header() http.Header { return w.header }
func (w *failingWriter) WriteHeader(int)     {}
func (w *failingWriter) Write(p []byte) (int, error) {
	if w.broken {
		w.after++
		return 0, errClientGone
	}
	n := min(len(p), w.limit-w.taken)
	w.taken += n
	if n < len(p) {
		w.broken = true
		return n, errClientGone
	}
	return n, nil
}

// TestBodyFailureAfterHeaderIsLoggedOnce: once the status line is out a
// failed write cannot become a 500. Every streaming handler must stop
// writing, log the failure once at debug level with the trace ID, and
// leave its pooled chunk or encoder buffers usable for the next request.
func TestBodyFailureAfterHeaderIsLoggedOnce(t *testing.T) {
	s, srv := newTestServer(t)
	var logged bytes.Buffer
	s.SetLogger(slog.New(slog.NewTextHandler(&logged, &slog.HandlerOptions{Level: slog.LevelDebug})))
	col := trace.NewCollector(4)

	for _, path := range []string{
		"/api/data?dataset=tennessee_30m&field=elevation",
		"/api/render?dataset=tennessee_30m&field=elevation",
		"/api/legend?width=4096",
		"/api/export.tif?dataset=tennessee_30m&field=elevation",
	} {
		_, want := get(t, srv.URL+path)
		for _, limit := range []int{0, 100, len(want) / 2} {
			logged.Reset()
			span := col.StartTrace(trace.NewID(), "test")
			req := httptest.NewRequest("GET", path, nil)
			req = req.WithContext(trace.NewContext(req.Context(), span))
			w := &failingWriter{header: http.Header{}, limit: limit}
			s.ServeHTTP(w, req)
			span.End()

			if !w.broken || w.after != 0 {
				t.Errorf("%s limit %d: broken=%v, %d more writes after the connection failed", path, limit, w.broken, w.after)
			}
			records := strings.Count(logged.String(), "level=DEBUG")
			if records != 1 || strings.Count(logged.String(), "\n") != 1 {
				t.Errorf("%s limit %d: want one debug record, got %q", path, limit, logged.String())
			}
			if !strings.Contains(logged.String(), "trace="+span.TraceID()) {
				t.Errorf("%s limit %d: record lacks the trace ID: %q", path, limit, logged.String())
			}
		}
		// The pools hand the next request clean state.
		if _, again := get(t, srv.URL+path); !bytes.Equal(again, want) {
			t.Errorf("%s: response after failed writes differs from the one before", path)
		}
	}
}

// discardWriter is a ResponseWriter that drops the body, so a test can
// measure what the handler allocates and not what a recorder buffers.
type discardWriter struct {
	header http.Header
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestDataAllocatesOnlyTheGrid pins the streamed /api/data body: serving
// a 1024x1024 lattice from a warm cache allocates the grid the read
// assembles and no encoding of it — no staging slice, no grown buffer.
func TestDataAllocatesOnlyTheGrid(t *testing.T) {
	const dim = 1024
	ctx := context.Background()
	meta, err := idx.NewMeta([]int{dim, dim}, []idx.Field{{Name: "elevation", Type: idx.Float32}})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := idx.Create(ctx, idx.NewMemBackend(), meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteGrid(ctx, "elevation", 0, dem.FBM(dim, dim, 7, dem.DefaultFBM())); err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	s.Register("big", query.New(ds, 64<<20))
	serve := func() int {
		w := &discardWriter{header: http.Header{}}
		s.ServeHTTP(w, httptest.NewRequest("GET", "/api/data?dataset=big", nil))
		return w.n
	}
	const gridBytes = 4 * dim * dim
	if n := serve(); n < gridBytes { // also fills the block cache and the chunk pool
		t.Fatalf("body of %d bytes for a %d-byte grid", n, gridBytes)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(gridBytes+256<<10); got > limit {
		t.Errorf("/api/data allocated %d bytes for a %d-byte grid, want <= %d", got, gridBytes, limit)
	}
}

// TestEncodeNPYMatchesStreamedBody: EncodeNPY and the /api/data stream
// are one implementation and must stay byte-identical.
func TestEncodeNPYMatchesStreamedBody(t *testing.T) {
	g := dem.FBM(300, 170, 3, dem.DefaultFBM()) // 204000 bytes: several chunks, the last one partial
	want, err := EncodeNPY(g)
	if err != nil {
		t.Fatal(err)
	}
	if cap(want) != len(want) {
		t.Errorf("EncodeNPY buffer has capacity %d for %d bytes; it is presized exactly", cap(want), len(want))
	}
	header, err := npyHeader(g)
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	if err := writeNPY(&streamed, header, g.Data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), want) {
		t.Fatal("streamed .npy differs from EncodeNPY")
	}
	if err := writeNPY(&failingWriter{limit: 10}, header, g.Data); !errors.Is(err, errClientGone) {
		t.Errorf("writeNPY to a broken writer returned %v", err)
	}
}
