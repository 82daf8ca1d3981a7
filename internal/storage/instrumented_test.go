package storage

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"nsdfgo/internal/telemetry"
)

func TestInstrumentedCountsOpsAndBytes(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	in := NewInstrumented(NewMemStore(), reg, "mem")

	if err := in.Put(ctx, "a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := in.Put(ctx, "b", []byte("world!!")); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Stat(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.List(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := in.Delete(ctx, "b"); err != nil {
		t.Fatal(err)
	}

	for op, want := range map[string]int64{"put": 2, "get": 1, "stat": 1, "list": 1, "delete": 1} {
		if got := reg.Counter("nsdf_storage_ops_total", "backend", "mem", "op", op).Value(); got != want {
			t.Errorf("ops[%s] = %d, want %d", op, got, want)
		}
	}
	if got := reg.Counter("nsdf_storage_bytes_total", "backend", "mem", "direction", "up").Value(); got != 12 {
		t.Errorf("bytes up = %d, want 12", got)
	}
	if got := reg.Counter("nsdf_storage_bytes_total", "backend", "mem", "direction", "down").Value(); got != 5 {
		t.Errorf("bytes down = %d, want 5", got)
	}
	if snap := reg.Histogram("nsdf_storage_op_seconds", "backend", "mem").Snapshot(); snap.Count != 6 {
		t.Errorf("latency observations = %d, want 6", snap.Count)
	}
}

func TestInstrumentedErrorAccounting(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	in := NewInstrumented(NewMemStore(), reg, "mem")

	// A missing object is an expected probe outcome, not a backend error.
	if _, err := in.Get(ctx, "absent"); err == nil {
		t.Fatal("expected ErrNotExist")
	}
	if got := reg.Counter("nsdf_storage_errors_total", "backend", "mem", "op", "get").Value(); got != 0 {
		t.Errorf("errors[get] after ErrNotExist = %d, want 0", got)
	}
	// A genuinely failing store does count.
	flaky := NewInstrumented(NewConditioned(NewMemStore(), NetworkProfile{FailProb: 1}, 1), reg, "flaky")
	if _, err := flaky.Get(ctx, "k"); err == nil {
		t.Fatal("store with FailProb 1 succeeded")
	}
	if got := reg.Counter("nsdf_storage_errors_total", "backend", "flaky", "op", "get").Value(); got != 1 {
		t.Errorf("errors[get] on flaky = %d, want 1", got)
	}
	// Failed transfers must not count payload bytes.
	if got := reg.Counter("nsdf_storage_bytes_total", "backend", "flaky", "direction", "down").Value(); got != 0 {
		t.Errorf("bytes down on failed get = %d, want 0", got)
	}
}

// TestInstrumentedFileServerBooksEveryBody: the public plane of a store
// node without peers, NewServer over Instrumented over a FileStore,
// streams bodies and books what Get and Put book: one op per request,
// the object's bytes by direction, nothing for a body the sender got
// wrong, and a missing object as an op but not an error.
func TestInstrumentedFileServerBooksEveryBody(t *testing.T) {
	ctx := context.Background()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewServer(NewInstrumented(fs, reg, "file"), ""))
	defer srv.Close()
	c := NewClient(srv.URL, "")
	if err := c.Put(ctx, "a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(ctx, "a"); err != nil || string(got) != "hello" {
		t.Fatalf("Get: %q, %v", got, err)
	}
	if _, err := c.Get(ctx, "absent"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get absent: %v", err)
	}
	if _, err := putBody(ctx, NewInstrumented(fs, reg, "file"), "b", strings.NewReader("xyz"), 4); !errors.Is(err, errBody) {
		t.Fatalf("short body: %v", err)
	}

	for op, want := range map[string]int64{"put": 1, "get": 2} {
		if got := reg.Counter("nsdf_storage_ops_total", "backend", "file", "op", op).Value(); got != want {
			t.Errorf("ops[%s] = %d, want %d", op, got, want)
		}
		if got := reg.Counter("nsdf_storage_errors_total", "backend", "file", "op", op).Value(); got != 0 {
			t.Errorf("errors[%s] = %d, want 0", op, got)
		}
	}
	for dir, want := range map[string]int64{"up": 5, "down": 5} {
		if got := reg.Counter("nsdf_storage_bytes_total", "backend", "file", "direction", dir).Value(); got != want {
			t.Errorf("bytes %s = %d, want %d", dir, got, want)
		}
	}
}
