package dashboard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nsdfgo/internal/admission"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/storage"
)

// faultBackend wraps a memory backend and, once armed, fails every block
// Get with the injected error (the descriptor stays readable so Open
// keeps working). It also counts block Gets, which the shed tests use
// to prove a 429 never reached the fetch path.
type faultBackend struct {
	*storage.IDXBackend
	mu      sync.Mutex
	err     error
	gets    atomic.Int64
	blockCh chan struct{} // non-nil: block Gets park here until closed
}

func (b *faultBackend) Get(ctx context.Context, name string) ([]byte, error) {
	if name == idx.MetaObjectName {
		return b.IDXBackend.Get(ctx, name)
	}
	b.gets.Add(1)
	b.mu.Lock()
	err := b.err
	ch := b.blockCh
	b.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	if ch != nil {
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return b.IDXBackend.Get(ctx, name)
}

func (b *faultBackend) fail(err error) {
	b.mu.Lock()
	b.err = err
	b.mu.Unlock()
}

// newFaultServer builds a dashboard over a 64x64 two-field, 2-timestep
// dataset on a faultBackend, with caching disabled so every read
// reaches the backend.
func newFaultServer(t *testing.T) (*Server, *query.Engine, *faultBackend, *httptest.Server) {
	t.Helper()
	meta, err := idx.NewMeta([]int{64, 64}, []idx.Field{
		{Name: "elevation", Type: idx.Float32},
		{Name: "hillshade", Type: idx.Float32},
	})
	if err != nil {
		t.Fatal(err)
	}
	meta.Timesteps = 2
	meta.BitsPerBlock = 8
	be := &faultBackend{IDXBackend: storage.NewIDXBackend(storage.NewMemStore(), "")}
	ds, err := idx.Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range []string{"elevation", "hillshade"} {
		for ts := 0; ts < 2; ts++ {
			g := dem.Scale(dem.FBM(64, 64, uint64(10*fi+ts+1), dem.DefaultFBM()), 0, 100)
			if err := ds.WriteGrid(context.Background(), f, ts, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	e := query.New(ds, 0) // no cache: reads always hit the backend
	s := NewServer()
	s.Register("faulty", e)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	be.gets.Store(0)
	return s, e, be, srv
}

// extrasReadPaths enumerates every extras.go handler that performs a
// region/probe read and therefore routes failures through readError.
var extrasReadPaths = []string{
	"/api/histogram?dataset=faulty&field=elevation",
	"/api/probe?dataset=faulty&x=3&y=4",
	"/api/compare?dataset=faulty&field=elevation&field_b=hillshade",
	"/api/export.tif?dataset=faulty&field=elevation",
}

func TestExtrasHandlersMapDeadlineTo504(t *testing.T) {
	_, _, be, srv := newFaultServer(t)
	be.fail(context.DeadlineExceeded)
	for _, path := range extrasReadPaths {
		resp, body := get(t, srv.URL+path)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s: status %d (%s), want 504", path, resp.StatusCode, body)
		}
	}
}

func TestExtrasHandlersSilenceCanceled(t *testing.T) {
	_, _, be, srv := newFaultServer(t)
	be.fail(context.Canceled)
	for _, path := range extrasReadPaths {
		resp, body := get(t, srv.URL+path)
		// readError writes nothing for a cancelled read (the client is
		// gone); through a live HTTP server that surfaces as the default
		// 200 with an empty body.
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want silent 200", path, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Errorf("%s: body %q, want empty", path, body)
		}
	}
}

func TestExtrasHandlersMapOtherErrorsTo400(t *testing.T) {
	_, _, be, srv := newFaultServer(t)
	be.fail(errors.New("disk on fire at /srv/objects/blk0004"))
	for _, path := range extrasReadPaths {
		resp, _ := get(t, srv.URL+path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestInternalErrorDoesNotLeakDetails pins the error-leak fix: the 500
// body is generic, while the real error and the request's trace ID land
// in the structured log for the operator.
func TestInternalErrorDoesNotLeakDetails(t *testing.T) {
	var buf bytes.Buffer
	s := NewServer()
	s.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/api/data", nil)
	secret := "open /var/lib/nsdf/secrets/blocks.db: permission denied"
	s.internalError(rec, req, errors.New(secret))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); strings.Contains(body, "permission denied") || strings.Contains(body, "/var/lib") {
		t.Errorf("500 body leaks internals: %q", body)
	}
	if !strings.Contains(buf.String(), secret) {
		t.Errorf("log is missing the real error: %q", buf.String())
	}
	if !strings.Contains(buf.String(), "trace=") {
		t.Errorf("log is missing the trace attribute: %q", buf.String())
	}
}

// TestShedRequestNeverTouchesCacheOrFetchPool proves the admission
// fast-fail contract: a shed request is answered 429 + Retry-After at
// the front door, before the dashboard router, the block cache, or the
// idx fetch pool see it.
func TestShedRequestNeverTouchesCacheOrFetchPool(t *testing.T) {
	_, e, be, _ := newFaultServer(t)
	s := NewServer()
	s.Register("faulty", e)
	ctrl := admission.NewController(admission.Options{MaxConcurrent: 1, MaxQueue: 0})
	srv := httptest.NewServer(ctrl.Middleware(s))
	defer srv.Close()

	// Park one admitted request inside a backend Get so the single
	// concurrency slot stays occupied.
	be.mu.Lock()
	be.blockCh = make(chan struct{})
	be.mu.Unlock()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		resp, err := http.Get(srv.URL + "/api/stats?dataset=faulty&field=elevation")
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for be.gets.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot-occupying request never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}

	getsBefore := be.gets.Load()
	statsBefore := e.CacheStats()
	resp, _ := get(t, srv.URL+"/api/render?dataset=faulty&field=elevation")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	if got := be.gets.Load(); got != getsBefore {
		t.Errorf("shed request reached the fetch pool: %d backend gets, had %d", got, getsBefore)
	}
	statsAfter := e.CacheStats()
	if statsAfter != statsBefore {
		t.Errorf("shed request touched the cache: %+v -> %+v", statsBefore, statsAfter)
	}

	be.mu.Lock()
	close(be.blockCh)
	be.blockCh = nil
	be.mu.Unlock()
	<-slowDone
}
