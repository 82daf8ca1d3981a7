package idx

import (
	"context"
	"errors"
	"testing"

	"nsdfgo/internal/telemetry"
)

// TestVolumeReadSharesTheReader pins what ReadBox3D gained by riding the
// 2D reader: the fetch pool (SetFetchParallelism governs 3D reads too),
// ReadStats.Runs, and cancellation accounting.
func TestVolumeReadSharesTheReader(t *testing.T) {
	const w, h, d = 32, 32, 16
	meta, err := NewMeta([]int{w, h, d}, []Field{{Name: "density", Type: Float32}})
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 8 // 64 blocks
	be := &slowCountingBackend{MemBackend: NewMemBackend()}
	ds, err := Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	data := volField(w, h, d)
	if err := ds.WriteVolume(context.Background(), "density", 0, data); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ds.SetTelemetry(reg, "vol")
	ds.SetFetchParallelism(4)

	vol, stats, err := ds.ReadBox3D(context.Background(), "density", 0, ds.FullBox3(), meta.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if vol.Data[i] != data[i] {
			t.Fatalf("sample %d: %v != %v", i, vol.Data[i], data[i])
		}
	}
	if stats.BlocksRead != meta.NumBlocks() {
		t.Errorf("read %d blocks, want %d", stats.BlocksRead, meta.NumBlocks())
	}
	if stats.Runs == 0 || stats.Runs >= stats.Samples {
		t.Errorf("stats.Runs = %d for %d samples, want bulk rows", stats.Runs, stats.Samples)
	}
	if peak := be.Peak(); peak < 2 || peak > 4 {
		t.Errorf("peak concurrent fetches = %d, want 2..4 under SetFetchParallelism(4)", peak)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ds.ReadBox3D(ctx, "density", 0, ds.FullBox3(), meta.MaxLevel()); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadBox3D on a cancelled ctx returned %v, want context.Canceled", err)
	}
	if got := reg.SumFamily("nsdf_idx_reads_cancelled_total"); got != 1 {
		t.Errorf("nsdf_idx_reads_cancelled_total = %v, want 1", got)
	}
}
