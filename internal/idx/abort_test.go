package idx

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nsdfgo/internal/storage"
)

// failFirstPutBackend fails the first block Put and slows the rest, so a
// write without early abort would grind through every remaining block.
type failFirstPutBackend struct {
	*storage.IDXBackend
	mu       sync.Mutex
	blockPut int
}

func (b *failFirstPutBackend) Put(ctx context.Context, name string, data []byte) error {
	if !strings.HasPrefix(name, BlockPrefix) {
		return b.IDXBackend.Put(ctx, name, data) // descriptor writes pass through
	}
	b.mu.Lock()
	b.blockPut++
	n := b.blockPut
	b.mu.Unlock()
	if n == 1 {
		return errors.New("injected store failure")
	}
	// Successful block stores are slow enough that workers not observing
	// the abort flag would take measurable wall time per block.
	time.Sleep(time.Millisecond)
	return b.IDXBackend.Put(ctx, name, data)
}

func (b *failFirstPutBackend) puts() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.blockPut
}

// TestWriteGridAbortsOnError checks that one worker's store failure
// stops the whole write quickly instead of letting the other workers
// finish every remaining block.
func TestWriteGridAbortsOnError(t *testing.T) {
	be := &failFirstPutBackend{IDXBackend: newBackend()}
	meta, err := NewMeta([]int{128, 128}, []Field{{Name: "v", Type: Float32, Codec: "raw"}})
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 8 // 64 blocks
	ds, err := Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	ds.SetWriteParallelism(2)
	numBlocks := meta.NumBlocks()

	err = ds.WriteGrid(context.Background(), "v", 0, rampGrid(128, 128))
	if err == nil {
		t.Fatal("WriteGrid succeeded despite failing backend")
	}
	if got := be.puts(); got > numBlocks/4 {
		t.Fatalf("write attempted %d of %d block stores after the failure; early abort is not engaging", got, numBlocks)
	}
}
