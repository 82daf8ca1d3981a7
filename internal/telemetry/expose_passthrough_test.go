package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// flushCounter is a ResponseWriter that counts Flush calls.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++ }

// TestStatusRecorderFlushPassesThrough: wrapping a flushable writer must
// not sever the streaming path — Flush reaches the inner Flusher, both
// directly and via http.ResponseController's Unwrap probing.
func TestStatusRecorderFlushPassesThrough(t *testing.T) {
	inner := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	rec := NewStatusRecorder(inner)

	var w http.ResponseWriter = rec
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("StatusRecorder does not implement http.Flusher")
	}
	f.Flush()
	if inner.flushes != 1 {
		t.Fatalf("inner Flush called %d times, want 1", inner.flushes)
	}
	if err := http.NewResponseController(rec).Flush(); err != nil {
		t.Fatalf("ResponseController.Flush: %v", err)
	}
	if inner.flushes != 2 {
		t.Fatalf("inner Flush called %d times via controller, want 2", inner.flushes)
	}
}

// TestStatusRecorderFlushOnPlainWriter: flushing a non-flushable inner
// writer is a safe no-op, not a panic.
func TestStatusRecorderFlushOnPlainWriter(t *testing.T) {
	rec := NewStatusRecorder(plainWriter{httptest.NewRecorder()})
	rec.Flush()
}

// plainWriter hides ResponseRecorder's Flusher and ReaderFrom.
type plainWriter struct{ inner *httptest.ResponseRecorder }

func (p plainWriter) Header() http.Header         { return p.inner.Header() }
func (p plainWriter) WriteHeader(code int)        { p.inner.WriteHeader(code) }
func (p plainWriter) Write(b []byte) (int, error) { return p.inner.Write(b) }

// readerFromWriter records whether the ReadFrom fast path was taken.
type readerFromWriter struct {
	plainWriter
	fastPath bool
}

func (r *readerFromWriter) ReadFrom(src io.Reader) (int64, error) {
	r.fastPath = true
	return io.Copy(struct{ io.Writer }{r.plainWriter}, src)
}

// TestStatusRecorderReadFrom: the fast path is delegated when the inner
// writer supports it, and the fallback copy still works when it does
// not — with identical bytes either way.
func TestStatusRecorderReadFrom(t *testing.T) {
	payload := strings.Repeat("block-data ", 100)

	fast := &readerFromWriter{plainWriter: plainWriter{httptest.NewRecorder()}}
	n, err := NewStatusRecorder(fast).ReadFrom(strings.NewReader(payload))
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("fast ReadFrom = (%d, %v), want (%d, nil)", n, err, len(payload))
	}
	if !fast.fastPath {
		t.Error("inner io.ReaderFrom was not used")
	}
	if got := fast.plainWriter.inner.Body.String(); got != payload {
		t.Error("fast-path payload mismatch")
	}

	slow := plainWriter{httptest.NewRecorder()}
	n, err = NewStatusRecorder(slow).ReadFrom(strings.NewReader(payload))
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("fallback ReadFrom = (%d, %v), want (%d, nil)", n, err, len(payload))
	}
	if got := slow.inner.Body.String(); got != payload {
		t.Error("fallback payload mismatch")
	}
}
