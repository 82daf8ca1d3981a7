package idx

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"
	"testing"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/storage"
)

// TestBlockWeightIsDomainShare checks blockWeight over every block of a
// 2-D and a 3-D dataset against the share of the padded domain its
// samples span, found by walking every sample: a block's samples lie on
// the lattice of its level, and on each axis they span from the first
// to the last plus one lattice step.
func TestBlockWeightIsDomainShare(t *testing.T) {
	for _, tc := range []struct {
		dims []int
		bpb  int
	}{
		{[]int{32, 16}, 3},
		{[]int{20, 12}, 2},
		{[]int{8, 8, 8}, 4},
		{[]int{16, 4, 8}, 3},
	} {
		t.Run(fmt.Sprint(tc.dims), func(t *testing.T) {
			meta, err := NewMeta(tc.dims, float32Fields())
			if err != nil {
				t.Fatal(err)
			}
			meta.BitsPerBlock = tc.bpb
			ds := &Dataset{Meta: meta}
			bm, m := meta.Bits, meta.Bits.Bits()
			padded := make([]int, bm.Dims())
			lo := make([][]int, meta.NumBlocks())
			hi := make([][]int, meta.NumBlocks())
			p := make([]int, bm.Dims())
			var walk func(a int)
			walk = func(a int) {
				if a == len(p) {
					z := bm.Interleave(p)
					hz := z
					if z != 0 {
						tz := bits.TrailingZeros64(z)
						hz = 1<<(m-tz-1) | z>>(tz+1)
					}
					b := hz >> meta.BitsPerBlock
					if lo[b] == nil {
						lo[b], hi[b] = append([]int(nil), p...), append([]int(nil), p...)
					}
					for i, v := range p {
						lo[b][i], hi[b][i] = min(lo[b][i], v), max(hi[b][i], v)
					}
					return
				}
				for p[a] = 0; p[a] < padded[a]; p[a]++ {
					walk(a + 1)
				}
			}
			for a := range padded {
				padded[a] = 1 << bm.AxisBits(a)
			}
			walk(0)
			for b := range lo {
				step := bm.LevelStrides(meta.BitsPerBlock + max(bits.Len(uint(b))-1, 0))
				share := 1.0
				for a := range padded {
					share *= float64(hi[b][a]-lo[b][a]+step[a]) / float64(padded[a])
				}
				if got := blockWeight(ds.BlockKey("elevation", 0, b)); got != share {
					t.Errorf("block %d: weight %v, spans %v of the domain", b, got, share)
				}
			}
		})
	}
	for _, key := range []string{MetaObjectName, "fields/f/t0000/bx.bin", "fields/f/t0000/b00000003", "other/b00000003.bin"} {
		if got := blockWeight(key); got != 1 {
			t.Errorf("foreign key %q weighs %v, want 1", key, got)
		}
	}
}

// getCountingBackend counts backend Gets.
type getCountingBackend struct {
	*storage.IDXBackend
	gets atomic.Int64
}

func (g *getCountingBackend) Get(ctx context.Context, name string) ([]byte, error) {
	g.gets.Add(1)
	return g.IDXBackend.Get(ctx, name)
}

// TestRefinementKeepsPreviewBlocks is the dashboard's pattern on a
// cache of 32 blocks: a coarse preview of the whole domain (8 blocks,
// weights 1 to 1/4), then 16 full-resolution reads over its left half,
// which fetch 136 blocks, far more than the tier holds. Eviction raises
// the clock by about the weight inserted per free slot: those 136
// blocks weigh 2.6 in all, which over the 24 slots the preview leaves
// is about 0.1, short of the 1/4 the lightest preview block is worth.
// So the preview costs no backend Get again. The control, unweighted
// (LRU) eviction, loses the blocks of the preview's right half.
func TestRefinementKeepsPreviewBlocks(t *testing.T) {
	ctx := context.Background()
	meta, err := NewMeta([]int{256, 256}, float32Fields())
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 8 // 256 blocks of 1 KiB
	be := &getCountingBackend{IDXBackend: newBackend()}
	ds, err := Create(ctx, be, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteGrid(ctx, "elevation", 0, rampGrid(256, 256)); err != nil {
		t.Fatal(err)
	}
	const previewLevel = 11 // blocks 0-7
	preview := func() int64 {
		before := be.gets.Load()
		if _, _, err := ds.ReadBox(ctx, "elevation", 0, Box{X1: 256, Y1: 256}, previewLevel); err != nil {
			t.Fatal(err)
		}
		return be.gets.Load() - before
	}
	session := func(c BlockCache) (previewAgain, halfGets int64) {
		ds.SetCache(c)
		if got := preview(); got != 8 {
			t.Fatalf("cold preview fetched %d blocks, want 8", got)
		}
		before := be.gets.Load()
		for y := 0; y < 256; y += 16 {
			if _, _, err := ds.ReadBox(ctx, "elevation", 0, Box{X1: 128, Y0: y, Y1: y + 16}, meta.MaxLevel()); err != nil {
				t.Fatal(err)
			}
		}
		return preview(), be.gets.Load() - before
	}

	weighted := cache.NewMemTiered(32 << 10)
	previewAgain, halfGets := session(weighted)
	if previewAgain != 0 {
		t.Errorf("preview after refining half the domain fetched %d blocks, want 0", previewAgain)
	}
	if halfGets <= 16 || weighted.Stats().Evictions == 0 {
		t.Fatalf("half-domain reads fetched %d blocks and evicted %d: the tier never filled", halfGets, weighted.Stats().Evictions)
	}
	if lruAgain, _ := session(struct{ BlockCache }{cache.NewMemTiered(32 << 10)}); lruAgain == 0 {
		t.Error("control: the preview survived LRU eviction too, so this test shows nothing")
	}
}
