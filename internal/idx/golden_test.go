package idx

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"

	"nsdfgo/internal/raster"
	"nsdfgo/internal/storage"
)

// storedHash digests every block object a dataset holds: name, length
// and bytes, in name order.
func storedHash(t *testing.T, be *storage.IDXBackend) string {
	t.Helper()
	ctx := context.Background()
	names, err := be.List(ctx, BlockPrefix)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := be.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(data)))
		h.Write([]byte(name))
		h.Write(n[:])
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStoredBytesGolden pins "every stored byte stays as it is": the
// blocks WriteVolume and WriteGrid store for fixed seeded inputs hash to
// the values recorded from the commit before the N-D block pipeline
// (db7dbeb, per-sample 3-D writer and 2-D tile plan). The dims are not
// powers of two and the blocks are small, so every dataset has partly
// padded blocks and blocks that are padding only; the samples span
// [-100, 300), so the uint8 field pins clamping at both ends too.
func TestStoredBytesGolden(t *testing.T) {
	cases := []struct {
		name string
		dims []int
		typ  DType
		want string
	}{
		{"volume/float32", []int{20, 9, 5}, Float32, "cc139d32f001a61198f1326d219ac89d96b49305020982fea8b311670e5f5cee"},
		{"volume/uint8", []int{20, 9, 5}, Uint8, "7fbbc229a2d0763503e0f26b89d114e645511030220dec51bb5d1e94606658db"},
		{"grid/float32", []int{37, 21}, Float32, "991f69633e239fdafed95ce7435f647bc0a12574e4da6a51a9baa8fbc7667d20"},
		{"grid/int16", []int{37, 21}, Int16, "6b8410dad7afeee79885c2aee82dc2a08a702611f245205627eab2a50542441d"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			meta, err := NewMeta(c.dims, []Field{{Name: "v", Type: c.typ, Fill: -7}})
			if err != nil {
				t.Fatal(err)
			}
			meta.BitsPerBlock = 6
			be := newBackend()
			ds, err := Create(context.Background(), be, meta)
			if err != nil {
				t.Fatal(err)
			}
			n := 1
			for _, d := range c.dims {
				n *= d
			}
			r := rand.New(rand.NewSource(16))
			data := make([]float32, n)
			for i := range data {
				data[i] = r.Float32()*400 - 100
			}
			if len(c.dims) == 3 {
				err = ds.WriteVolume(context.Background(), "v", 0, data)
			} else {
				err = ds.WriteGrid(context.Background(), "v", 0, &raster.Grid{W: c.dims[0], H: c.dims[1], Data: data})
			}
			if err != nil {
				t.Fatal(err)
			}
			if objects, _ := footprint(t, be); objects-1 != meta.NumBlocks() {
				t.Fatalf("stored %d blocks, want %d", objects-1, meta.NumBlocks())
			}
			if got := storedHash(t, be); got != c.want {
				t.Errorf("stored blocks hash %s, want %s", got, c.want)
			}
		})
	}
}
