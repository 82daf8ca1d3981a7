package compress

import (
	"bytes"
	"compress/flate"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// allocated returns the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// terrainBlock is n bytes of float32 samples that compress like an IDX
// block of a smooth field.
func terrainBlock(n int, phase float64) []byte {
	values := make([]float32, n/4)
	for i := range values {
		values[i] = float32(900 + 400*math.Sin(phase+float64(i)/700) + 3*math.Sin(float64(i)/11))
	}
	return float32Bytes(values)
}

// medianAllocated runs f calls times and returns the median of the
// bytes each run allocated. The median, not the mean, because under the
// race detector sync.Pool drops a quarter of what is put back.
func medianAllocated(calls int, f func()) uint64 {
	per := make([]uint64, calls)
	for i := range per {
		per[i] = allocated(f)
	}
	sort.Slice(per, func(a, b int) bool { return per[a] < per[b] })
	return per[calls/2]
}

// TestCodecAllocationIsThePayload pins the one-buffer-per-hop contract
// where the block path pays for it: a decode allocates the block it
// returns and an encode the stream it returns, with inflate/deflate
// state and the shuffled intermediate coming from the pools. A
// reintroduced ReadAll, staging copy or per-call flate state fails here.
func TestCodecAllocationIsThePayload(t *testing.T) {
	const calls = 20
	block := terrainBlock(256<<10, 0)
	for _, codec := range []Codec{ShuffleZlib{ElemSize: 4}, Zlib{}} {
		enc, err := codec.Encode(block)
		if err != nil {
			t.Fatal(err)
		}
		got := medianAllocated(calls, func() {
			if _, err := codec.Decode(enc, len(block)); err != nil {
				t.Fatal(err)
			}
		})
		if limit := uint64(len(block)) + 8<<10; got > limit {
			t.Errorf("%s: Decode allocates %d bytes per %d-byte block, want <= %d", codec.Name(), got, len(block), limit)
		}
		got = medianAllocated(calls, func() {
			if _, err := codec.Encode(block); err != nil {
				t.Fatal(err)
			}
		})
		if limit := uint64(len(block)) + 16<<10; got > limit {
			t.Errorf("%s: Encode allocates %d bytes per %d-byte block, want <= %d", codec.Name(), got, len(block), limit)
		}
	}
}

// TestPooledWritersMatchFreshWriter checks that a reused flate writer
// emits exactly what a new one does, whatever it compressed before:
// stored blocks, and so stored_ratio, do not depend on pool history.
func TestPooledWritersMatchFreshWriter(t *testing.T) {
	fresh := func(src []byte) []byte {
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(src); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	inputs := [][]byte{
		terrainBlock(256<<10, 0), []byte("abc"), terrainBlock(4<<10, 1), {},
		bytes.Repeat([]byte{7}, 100<<10), terrainBlock(64<<10, 2), terrainBlock(256<<10, 3),
	}
	for round := 0; round < 2; round++ {
		for i, in := range inputs {
			got, err := (Zlib{}).Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fresh(in)) {
				t.Fatalf("round %d input %d: pooled zlib stream differs from a fresh writer's", round, i)
			}
			got, err = (ShuffleZlib{ElemSize: 4}).Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fresh(Shuffle(in, 4))) {
				t.Fatalf("round %d input %d: pooled shuffle4-zlib stream differs from a fresh writer's", round, i)
			}
		}
	}
}

// TestPooledDecodesDoNotAlias decodes different blocks through the
// shared pools from 8 goroutines (run it under -race) and checks that
// every returned block is private: each holds its own data after all
// the others were scribbled over.
func TestPooledDecodesDoNotAlias(t *testing.T) {
	const workers, rounds = 8, 20
	codecs := []Codec{Zlib{}, ShuffleZlib{ElemSize: 2}, ShuffleZlib{ElemSize: 4}, ShuffleZlib{ElemSize: 8}, ZFPLike{}, ZFPLike{Tolerance: 1e-3}}
	type result struct {
		want, got []byte
	}
	results := make([][]result, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				codec := codecs[(g+r)%len(codecs)]
				block := terrainBlock((8+g+r)<<10, float64(g*rounds+r))
				enc, err := codec.Encode(block)
				if err != nil {
					t.Error(err)
					return
				}
				// The lossy codec is compared against its own first decode.
				want, err := codec.Decode(enc, len(block))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := codec.Decode(enc, len(block))
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], result{want: bytes.Clone(want), got: got})
				for i := range want {
					want[i] = 0xAA // must not reach any other result
				}
			}
		}(g)
	}
	wg.Wait()
	for g, rs := range results {
		for r, res := range rs {
			if !bytes.Equal(res.got, res.want) {
				t.Fatalf("worker %d round %d: a decoded block changed after other blocks were overwritten", g, r)
			}
			for i := range res.got {
				res.got[i] = 0x55
			}
		}
	}
}

// TestPresizedDecodeRejectsWrongLength: on every presized path a stream
// that decodes shorter or longer than dstSize is an error, never a
// silently truncated or grown block.
func TestPresizedDecodeRejectsWrongLength(t *testing.T) {
	block := terrainBlock(16<<10, 0)
	for _, name := range Names() {
		codec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := codec.Encode(block)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{0, 4, len(block) - 4, len(block) + 4, 2 * len(block)} {
			if out, err := codec.Decode(enc, size); err == nil {
				t.Errorf("%s: Decode of a %d-byte block with dstSize %d returned %d bytes and no error", name, len(block), size, len(out))
			}
		}
		if _, err := codec.Decode(enc, len(block)); err != nil {
			t.Errorf("%s: Decode with the true size: %v", name, err)
		}
	}
}

// TestShuffleKernelsMatchStridedPass compares the element-wise kernels
// with the one-plane-at-a-time definition of the filter.
func TestShuffleKernelsMatchStridedPass(t *testing.T) {
	for _, elem := range []int{2, 3, 4, 8} {
		for _, size := range []int{0, 1, elem, 7 * elem, 1000*elem + elem - 1} {
			src := make([]byte, size)
			for i := range src {
				src[i] = byte(i*31 + i/251)
			}
			n := size / elem
			want := make([]byte, size)
			for b := 0; b < elem; b++ {
				for i := 0; i < n; i++ {
					want[b*n+i] = src[i*elem+b]
				}
			}
			copy(want[n*elem:], src[n*elem:])
			if got := Shuffle(src, elem); !bytes.Equal(got, want) {
				t.Errorf("Shuffle elem=%d size=%d differs from the strided pass", elem, size)
			}
			if got := Unshuffle(want, elem); !bytes.Equal(got, src) {
				t.Errorf("Unshuffle elem=%d size=%d does not invert the strided pass", elem, size)
			}
		}
	}
}
