package fusefs

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"nsdfgo/internal/storage"
)

func mappings() map[string]Mapping {
	return map[string]Mapping{
		"one-to-one": OneToOne{},
		"chunked":    Chunked{ChunkSize: 64},
		"compressed": Compressed{},
	}
}

func TestMappingRoundTrip(t *testing.T) {
	ctx := context.Background()
	payloads := map[string][]byte{
		"empty":      {},
		"small":      []byte("hello"),
		"one-chunk":  bytes.Repeat([]byte{1}, 64),
		"two-chunks": bytes.Repeat([]byte{2}, 65),
		"many":       bytes.Repeat([]byte("terrain"), 1000),
	}
	for mname, m := range mappings() {
		store := storage.NewMemStore()
		for pname, data := range payloads {
			path := "dir/" + pname + ".bin"
			if err := m.Write(ctx, store, path, data); err != nil {
				t.Fatalf("%s/%s: Write: %v", mname, pname, err)
			}
			got, err := m.Read(ctx, store, path)
			if err != nil {
				t.Fatalf("%s/%s: Read: %v", mname, pname, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%s: round trip mismatch (%d -> %d bytes)", mname, pname, len(data), len(got))
			}
		}
		files, err := m.Files(ctx, store, "dir/")
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != len(payloads) {
			t.Fatalf("%s: listed %d files, want %d", mname, len(files), len(payloads))
		}
	}
}

func TestMappingRemove(t *testing.T) {
	ctx := context.Background()
	for mname, m := range mappings() {
		store := storage.NewMemStore()
		if err := m.Write(ctx, store, "f.bin", []byte("data")); err != nil {
			t.Fatal(err)
		}
		if err := m.Remove(ctx, store, "f.bin"); err != nil {
			t.Fatalf("%s: Remove: %v", mname, err)
		}
		if _, err := m.Read(ctx, store, "f.bin"); err == nil {
			t.Errorf("%s: file readable after remove", mname)
		}
		// All objects gone: no leaked chunks or manifests.
		infos, _ := store.List(ctx, "")
		if len(infos) != 0 {
			t.Errorf("%s: %d objects leaked after remove: %+v", mname, len(infos), infos)
		}
		// Removing again is fine.
		if err := m.Remove(ctx, store, "f.bin"); err != nil {
			t.Errorf("%s: double remove: %v", mname, err)
		}
	}
}

func TestChunkedSplitsObjects(t *testing.T) {
	ctx := context.Background()
	store := storage.NewMemStore()
	m := Chunked{ChunkSize: 100}
	data := make([]byte, 350)
	if err := m.Write(ctx, store, "big.bin", data); err != nil {
		t.Fatal(err)
	}
	infos, _ := store.List(ctx, "")
	// 4 chunks + 1 manifest.
	if len(infos) != 5 {
		t.Fatalf("%d objects, want 5", len(infos))
	}
}

func TestChunkedReportsLogicalSize(t *testing.T) {
	ctx := context.Background()
	store := storage.NewMemStore()
	m := Chunked{ChunkSize: 100}
	if err := m.Write(ctx, store, "f.bin", make([]byte, 250)); err != nil {
		t.Fatal(err)
	}
	files, err := m.Files(ctx, store, "")
	if err != nil || len(files) != 1 {
		t.Fatalf("Files: %+v, %v", files, err)
	}
	if files[0].Size != 250 {
		t.Errorf("Size = %d, want 250", files[0].Size)
	}
}

func TestCompressedShrinksRepetitiveData(t *testing.T) {
	ctx := context.Background()
	store := storage.NewMemStore()
	m := Compressed{}
	data := bytes.Repeat([]byte("abcdefgh"), 4096)
	if err := m.Write(ctx, store, "f.bin", data); err != nil {
		t.Fatal(err)
	}
	infos, err := store.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	var stored int64
	for _, info := range infos {
		stored += info.Size
	}
	if stored > int64(len(data))/4 {
		t.Errorf("stored %d bytes for %d input", stored, len(data))
	}
}

func TestMappingRoundTripProperty(t *testing.T) {
	ctx := context.Background()
	for mname, m := range mappings() {
		store := storage.NewMemStore()
		f := func(seed int64, n uint16) bool {
			r := rand.New(rand.NewSource(seed))
			data := make([]byte, int(n)%2000)
			r.Read(data)
			if err := m.Write(ctx, store, "prop.bin", data); err != nil {
				return false
			}
			got, err := m.Read(ctx, store, "prop.bin")
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", mname, err)
		}
	}
}

func BenchmarkMappingWrite1MiB(b *testing.B) {
	ctx := context.Background()
	data := make([]byte, 1<<20)
	for mname, m := range mappings() {
		b.Run(mname, func(b *testing.B) {
			store := storage.NewMemStore()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.Write(ctx, store, "bench.bin", data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMappingRead1MiB(b *testing.B) {
	ctx := context.Background()
	data := make([]byte, 1<<20)
	for mname, m := range mappings() {
		b.Run(mname, func(b *testing.B) {
			store := storage.NewMemStore()
			if err := m.Write(ctx, store, "bench.bin", data); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Read(ctx, store, "bench.bin"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
