package storage

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"nsdfgo/internal/idx"
	"nsdfgo/internal/raster"
)

func TestIDXBackendRoundTrip(t *testing.T) {
	store := NewMemStore()
	be := NewIDXBackend(store, "datasets/tn")
	meta, err := idx.NewMeta([]int{32, 32}, []idx.Field{{Name: "elevation", Type: idx.Float32, Codec: "zlib"}})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := idx.Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	g := rampGrid(32, 32)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		t.Fatal(err)
	}
	// Reopen through a second backend instance.
	ds2, err := idx.Open(context.Background(), NewIDXBackend(store, "datasets/tn/"))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ds2.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, out) {
		t.Error("round trip through store-backed dataset failed")
	}
}

func TestIDXBackendMissingMapsToNotExist(t *testing.T) {
	be := NewIDXBackend(NewMemStore(), "p")
	if _, err := be.Get(context.Background(), "nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing object error = %v", err)
	}
}

func TestIDXBackendListStripsPrefix(t *testing.T) {
	store := NewMemStore()
	be := NewIDXBackend(store, "root")
	if err := be.Put(context.Background(), "fields/a/b1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	names, err := be.List(context.Background(), "fields/")
	if err != nil || len(names) != 1 || names[0] != "fields/a/b1" {
		t.Fatalf("List = %v, %v", names, err)
	}
	// Underlying store key carries the prefix.
	infos, _ := store.List(context.Background(), "root/")
	if len(infos) != 1 {
		t.Fatalf("store keys: %+v", infos)
	}
}

// fileBackend is how cmd/nsdf-convert and a local `nsdf-dashboard -data
// name=path` reach a dataset directory: a FileStore rooted at the path,
// adapted with an empty prefix.
func fileBackend(t *testing.T, root string) *IDXBackend {
	t.Helper()
	fs, err := NewFileStore(root)
	if err != nil {
		t.Fatal(err)
	}
	return NewIDXBackend(fs, "")
}

func TestFileStoreIDXBackend(t *testing.T) {
	ctx := context.Background()
	be := fileBackend(t, t.TempDir())
	if err := be.Put(ctx, "a/b/c.bin", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := be.Get(ctx, "a/b/c.bin")
	if err != nil || string(data) != "hello" {
		t.Fatalf("Get: %q, %v", data, err)
	}
	if _, err := be.Get(ctx, "missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing object error = %v", err)
	}
	names, err := be.List(ctx, "a/")
	if err != nil || len(names) != 1 || names[0] != "a/b/c.bin" {
		t.Errorf("List = %v, %v", names, err)
	}
	if _, err := be.Get(ctx, "../escape"); err == nil {
		t.Error("path escape accepted")
	}
	// idx.Backend's Delete contract: deleting a missing object is no error.
	if err := be.Delete(ctx, "absent"); err != nil {
		t.Errorf("Delete(absent) = %v", err)
	}
}

func rampGrid(w, h int) *raster.Grid {
	g := raster.New(w, h)
	for i := range g.Data {
		g.Data[i] = float32(i)
	}
	return g
}

func TestFileStoreIDXBackendDataset(t *testing.T) {
	ctx := context.Background()
	be := fileBackend(t, t.TempDir())
	meta, _ := idx.NewMeta([]int{40, 24}, []idx.Field{{Name: "elevation", Type: idx.Float32}})
	ds, err := idx.Create(ctx, be, meta)
	if err != nil {
		t.Fatal(err)
	}
	g := rampGrid(40, 24)
	if err := ds.WriteGrid(ctx, "elevation", 0, g); err != nil {
		t.Fatal(err)
	}
	ds2, err := idx.Open(ctx, be)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ds2.ReadFull(ctx, "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, out) {
		t.Error("disk round trip mismatch")
	}
}

// TestFileStoreIDXBackendOpensExistingDirectory: a .idxdata directory
// written before idx.DirBackend was folded into FileStore — one file
// per object at root/<name>, possibly a crashed Put's staging file left
// in root/.nsdf-tmp — opens and reads back unchanged through the
// FileStore path.
func TestFileStoreIDXBackendOpensExistingDirectory(t *testing.T) {
	ctx := context.Background()
	mem := NewIDXBackend(NewMemStore(), "")
	meta, _ := idx.NewMeta([]int{40, 24}, []idx.Field{{Name: "elevation", Type: idx.Float32}})
	ds, err := idx.Create(ctx, mem, meta)
	if err != nil {
		t.Fatal(err)
	}
	g := rampGrid(40, 24)
	if err := ds.WriteGrid(ctx, "elevation", 0, g); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	names, err := mem.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := mem.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blocks, err := mem.List(ctx, idx.BlockPrefix)
	if err != nil || len(blocks) == 0 {
		t.Fatalf("blocks = %v, %v", blocks, err)
	}
	if err := os.MkdirAll(filepath.Join(root, fileStoreTmp), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, fileStoreTmp, "put-1"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	be := fileBackend(t, root)
	listed, err := be.List(ctx, "")
	if err != nil || len(listed) != len(names) {
		t.Fatalf("List = %v, %v; want the %d objects and no staging file", listed, err, len(names))
	}
	opened, err := idx.Open(ctx, be)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := opened.ReadFull(ctx, "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, out) {
		t.Error("existing directory read back differently")
	}
}
