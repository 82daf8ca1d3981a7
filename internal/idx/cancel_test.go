package idx

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
)

// hangingBackend serves the descriptor normally but parks every block
// Get until the caller's context is cancelled — the shape of a stalled
// remote store. Honouring ctx is exactly what Backend implementations
// promise, so a leak in this test is the Dataset's, not the backend's.
type hangingBackend struct {
	*storage.IDXBackend
	entered chan struct{}
}

func (b *hangingBackend) Get(ctx context.Context, name string) ([]byte, error) {
	if !strings.HasPrefix(name, BlockPrefix) {
		return b.IDXBackend.Get(ctx, name)
	}
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// waitForGoroutines polls until the live goroutine count drops back to
// at most want, failing the test after a generous deadline.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain: have %d, want <= %d", runtime.NumGoroutine(), want)
}

// TestReadBoxCancelFreesFetchWorkers is the tentpole regression test: a
// read against a hung store must return promptly when its context is
// cancelled, every fetch worker must exit (no goroutine leak), and the
// cancellation must be visible in telemetry.
func TestReadBoxCancelFreesFetchWorkers(t *testing.T) {
	meta, err := NewMeta([]int{128, 128}, []Field{{Name: "elevation", Type: Float32}})
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 8 // 64 blocks: plenty of work to strand in-flight
	mem := newBackend()
	ds, err := Create(context.Background(), mem, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteGrid(context.Background(), "elevation", 0, rampGrid(128, 128)); err != nil {
		t.Fatal(err)
	}

	// Reopen through the hanging wrapper so only reads stall.
	be := &hangingBackend{IDXBackend: mem, entered: make(chan struct{}, 1)}
	ds2, err := Open(context.Background(), be)
	if err != nil {
		t.Fatal(err)
	}
	ds2.SetFetchParallelism(4)
	reg := telemetry.NewRegistry()
	ds2.SetTelemetry(reg, "hung")

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := ds2.ReadBox(ctx, "elevation", 0, ds2.FullBox(), ds2.Meta.MaxLevel())
		done <- err
	}()

	// Wait until at least one worker is parked inside the store, then
	// pull the plug.
	select {
	case <-be.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no block fetch ever started")
	}
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ReadBox returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadBox did not return after cancellation")
	}

	// The feeder, the workers, and the closer must all have exited.
	waitForGoroutines(t, base)

	if got := reg.SumFamily("nsdf_idx_reads_cancelled_total"); got < 1 {
		t.Errorf("nsdf_idx_reads_cancelled_total = %v, want >= 1", got)
	}
}

// TestWriteGridCancelStopsClaims checks the write pool's mirror-image
// behaviour: cancelling mid-write aborts the remaining block claims and
// surfaces the context error.
func TestWriteGridCancelStopsClaims(t *testing.T) {
	meta, err := NewMeta([]int{128, 128}, []Field{{Name: "elevation", Type: Float32}})
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 8
	ds, err := Create(context.Background(), newBackend(), meta)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ds.WriteGrid(ctx, "elevation", 0, rampGrid(128, 128)); !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteGrid on a cancelled ctx returned %v, want context.Canceled", err)
	}
}
