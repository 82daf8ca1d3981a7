package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nsdfgo/internal/telemetry"
)

// fillConst returns a fill function serving a fixed payload and
// counting its invocations.
func fillConst(payload []byte, calls *atomic.Int64) func(context.Context) ([]byte, error) {
	return func(context.Context) ([]byte, error) {
		if calls != nil {
			calls.Add(1)
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		return cp, nil
	}
}

// mustTiered is NewTiered for tests. With no weigher every key weighs
// 1, so eviction, and with it disk spill, is LRU order.
func mustTiered(t *testing.T, opts Options) *Tiered {
	t.Helper()
	c, err := NewTiered(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGetOrFillCoalesces is the coalescing acceptance test: N
// concurrent misses on one key run the fill exactly once, and the
// nsdf_cache_coalesced_total series increments.
func TestGetOrFillCoalesces(t *testing.T) {
	c := NewMemTiered(1 << 20)
	reg := telemetry.NewRegistry()
	c.Instrument(reg, "test")

	const readers = 8
	var calls atomic.Int64
	release := make(chan struct{})
	fill := func(context.Context) ([]byte, error) {
		calls.Add(1)
		<-release // hold the flight open so the others pile in
		return []byte("payload"), nil
	}
	var started, wg sync.WaitGroup
	started.Add(readers)
	wg.Add(readers)
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			defer wg.Done()
			started.Done()
			blk, _, err := c.GetOrFill(context.Background(), "k", fill)
			if err != nil {
				errs <- err
				return
			}
			if string(blk.Bytes()) != "payload" {
				errs <- fmt.Errorf("wrong payload %q", blk.Bytes())
			}
		}()
	}
	started.Wait()
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want exactly 1", got)
	}
	s := c.Stats()
	// Every reader that did not run the fill was either coalesced into
	// the flight or (if it arrived after completion) served from cache.
	if s.Coalesced+s.Hits != readers-1 {
		t.Errorf("coalesced=%d hits=%d, want %d combined", s.Coalesced, s.Hits, readers-1)
	}
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
	if s.Coalesced > 0 {
		if got := reg.SumFamily("nsdf_cache_coalesced_total"); got != float64(s.Coalesced) {
			t.Errorf("nsdf_cache_coalesced_total = %v, want %d", got, s.Coalesced)
		}
	}
}

func TestGetOrFillErrorPropagatesAndRetries(t *testing.T) {
	c := NewMemTiered(1 << 20)
	boom := errors.New("backend down")
	var calls atomic.Int64
	_, _, err := c.GetOrFill(context.Background(), "k", func(context.Context) ([]byte, error) {
		calls.Add(1)
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// A failed flight must not be cached: the next call retries.
	if _, _, err := c.GetOrFill(context.Background(), "k", fillConst([]byte("ok"), &calls)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("fill calls = %d, want 2", calls.Load())
	}
}

// TestGetOrFillWaiterCtxCancel: a waiter whose ctx dies mid-fill returns
// its ctx error and nothing else happens — the fill runs once, the
// leader and a waiter that stayed both get the block, and it is cached.
func TestGetOrFillWaiterCtxCancel(t *testing.T) {
	c := NewMemTiered(1 << 20)
	var calls atomic.Int64
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	fill := func(context.Context) ([]byte, error) {
		if calls.Add(1) == 1 {
			close(leaderIn)
		}
		<-release
		return []byte("v"), nil
	}
	errs := make(chan error, 2)
	read := func() {
		blk, _, err := c.GetOrFill(context.Background(), "k", fill)
		if err == nil && string(blk.Bytes()) != "v" {
			err = fmt.Errorf("wrong payload %q", blk.Bytes())
		}
		errs <- err
	}
	go read() // the leader
	<-leaderIn
	go read() // a waiter that stays (or, arriving late, a hit)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.GetOrFill(ctx, "k", fill); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("fill ran %d times, want 1", got)
	}
	if got, ok := c.Get("k"); !ok || string(got.Bytes()) != "v" {
		t.Error("k not cached after the fill the cancelled waiter abandoned")
	}
}

// TestGetOrFillOutlivesCancelledLeader: a client that goes away fails
// only itself. A waiter coalesced on its fill, whose own ctx is live,
// runs the fill again as the new leader and gets the block.
func TestGetOrFillOutlivesCancelledLeader(t *testing.T) {
	c := NewMemTiered(1 << 20)
	var calls atomic.Int64
	leaderIn := make(chan struct{})
	fill := func(ctx context.Context) ([]byte, error) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return []byte("v"), nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrFill(ctx, "k", fill)
		leader <- err
	}()
	<-leaderIn
	waiter := make(chan error, 1)
	go func() {
		blk, _, err := c.GetOrFill(context.Background(), "k", fill)
		if err == nil && string(blk.Bytes()) != "v" {
			err = fmt.Errorf("wrong payload %q", blk.Bytes())
		}
		waiter <- err
	}()
	waitParkedIn(t, "cache.(*fillGroup).do")
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("waiter on the cancelled leader's fill: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("fill ran %d times, want 2", got)
	}
}

// waitParkedIn waits until a goroutine is blocked in a select inside
// fn, as the goroutine dump shows it.
func waitParkedIn(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for i := 0; i < 5000; i++ {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, fn) {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no goroutine parked in %s", fn)
}

func TestTieredDisabledFillsWithoutCountingOrCoalescing(t *testing.T) {
	c := NewMemTiered(0)
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		blk, outcome, err := c.GetOrFill(context.Background(), "k", fillConst([]byte("v"), &calls))
		if err != nil {
			t.Fatal(err)
		}
		if outcome != OutcomeFilled || string(blk.Bytes()) != "v" {
			t.Errorf("outcome = %v, payload %q", outcome, blk.Bytes())
		}
	}
	if calls.Load() != 3 {
		t.Errorf("disabled cache coalesced or cached: %d fills", calls.Load())
	}
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 || s.Coalesced != 0 {
		t.Errorf("disabled cache counted traffic: %+v", s)
	}
}

func TestDiskTierSpillPromoteInvalidate(t *testing.T) {
	dir := t.TempDir()
	c := mustTiered(t, Options{MemBytes: 2048, DiskDir: dir, DiskBytes: 1 << 20})
	payload := func(b byte) []byte {
		data := make([]byte, 1024)
		for i := range data {
			data[i] = b
		}
		return data
	}
	c.Put("a", payload(1))
	c.Put("b", payload(2))
	c.Put("c", payload(3)) // evicts a -> spills to disk
	s := c.Stats()
	if s.DiskEntries != 1 || s.DiskBytes != 1024 {
		t.Fatalf("disk tier after spill: %+v", s)
	}
	blk, ok := c.Get("a")
	if !ok {
		t.Fatal("a lost from both tiers")
	}
	if blk.Bytes()[0] != 1 || blk.Len() != 1024 {
		t.Fatalf("disk hit served wrong payload")
	}
	s = c.Stats()
	if s.DiskHits != 1 {
		t.Errorf("disk hits = %d", s.DiskHits)
	}
	// The exported series read the same counters as Stats.
	reg := telemetry.NewRegistry()
	c.Instrument(reg, "test")
	for family, want := range map[string]int64{
		"nsdf_cache_evictions_total": s.Evictions,
		"nsdf_cache_disk_hits_total": s.DiskHits,
		"nsdf_cache_entries":         int64(s.Entries),
		"nsdf_cache_bytes":           s.Bytes,
		"nsdf_cache_disk_bytes":      s.DiskBytes,
	} {
		if got := reg.SumFamily(family); want == 0 || got != float64(want) {
			t.Errorf("%s = %v, want Stats' %d (> 0)", family, got, want)
		}
	}
	// Invalidation purges both tiers.
	c.Put("a", payload(9))
	c.Remove("a")
	if _, ok := c.Get("a"); ok {
		t.Error("removed key still served")
	}
	if files := diskFiles(t, dir); len(files) > 2 {
		t.Errorf("disk tier holds %d files for 2 live entries", len(files))
	}

	// A new cache on the same directory wipes leftovers.
	c2, err := NewTiered(Options{MemBytes: 2048, DiskDir: dir, DiskBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.DiskEntries != 0 {
		t.Errorf("fresh cache inherited %d disk entries", s.DiskEntries)
	}
	if files := diskFiles(t, dir); len(files) != 0 {
		t.Errorf("startup wipe left %d files", len(files))
	}
}

// TestEvictedBlockSurvivesWhileHeld pins the Block contract (DESIGN.md
// §11): bytes obtained from Put, Get, Peek, GetOrFill or a disk-tier
// promotion are immutable and the holder's for as long as it keeps
// them. Eight readers re-verify five held blocks while the cache evicts
// and spills them, promotes other keys from disk, replaces, Removes and
// Clears their keys; under -race any write to a held buffer is a
// reported race, not only a changed byte.
func TestEvictedBlockSurvivesWhileHeld(t *testing.T) {
	c := mustTiered(t, Options{MemBytes: 4 << 10, DiskDir: t.TempDir(), DiskBytes: 8 << 10})
	payload := func(b byte) []byte { return bytes.Repeat([]byte{b}, 1<<10) }
	var held []*Block
	hold := func(blk *Block, ok bool) {
		if !ok {
			t.Fatalf("lookup %d missed", len(held))
		}
		held = append(held, blk)
	}
	hold(c.Put("put", payload(1)), true)
	c.Put("get", payload(2))
	hold(c.Get("get"))
	c.Put("peek", payload(3))
	hold(c.Peek("peek"))
	blk, _, err := c.GetOrFill(context.Background(), "fill", fillConst(payload(4), nil))
	hold(blk, err == nil)
	c.Put("disk", payload(5))
	for i := 0; i < 4; i++ { // push "disk" (and the four above) out to the disk tier
		c.Put(fmt.Sprintf("filler%d", i), payload(0))
	}
	before := c.Stats().DiskHits
	hold(c.Get("disk"))
	if c.Stats().DiskHits != before+1 {
		t.Fatal("fifth block was not a disk-tier promotion")
	}

	want := make([][]byte, len(held))
	for i := range want {
		want[i] = payload(byte(i + 1))
	}
	intact := func() error {
		for i, blk := range held {
			if !bytes.Equal(blk.Bytes(), want[i]) {
				return fmt.Errorf("held block %d changed under its holder", i)
			}
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := intact(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	keys := []string{"put", "get", "peek", "fill", "disk"}
	for round := 0; round < 21; round++ {
		for i := 0; i < 12; i++ { // evict, spill, and age entries out of the disk tier
			c.Put(fmt.Sprintf("other%d", i), payload(byte(100+i)))
		}
		for i := 0; i < 12; i++ { // promote other keys' disk entries into fresh buffers
			c.Get(fmt.Sprintf("other%d", i))
		}
		for _, k := range keys {
			switch round % 3 {
			case 0:
				c.Put(k, payload(0xff)) // replace under the held key
			case 1:
				c.Remove(k)
			}
		}
		if round%3 == 2 {
			c.Clear()
		}
	}
	close(stop)
	wg.Wait()
	if err := intact(); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Evictions == 0 || s.DiskHits < 2 {
		t.Errorf("churn exercised too little: %+v", s)
	}
}

func diskFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".blk") {
			out = append(out, filepath.Join(dir, de.Name()))
		}
	}
	return out
}

// TestTieredStressRace mixes Get/Put/Remove/Clear/GetOrFill across
// goroutines on a tiny two-tier cache (run under -race by `make race`).
// Payload verification catches a buffer written to while a reader can
// still see it.
func TestTieredStressRace(t *testing.T) {
	c, err := NewTiered(Options{MemBytes: 4 << 10, DiskDir: t.TempDir(), DiskBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				k := (w*17 + i) % 24
				key := fmt.Sprintf("k%d", k)
				check := func(blk *Block) {
					for _, b := range blk.Bytes() {
						if b != byte(k) {
							t.Errorf("key %s served foreign payload %d", key, b)
							break
						}
					}
				}
				mk := func() []byte {
					data := make([]byte, 128+k)
					for j := range data {
						data[j] = byte(k)
					}
					return data
				}
				switch i % 8 {
				case 0, 1, 2:
					if blk, ok := c.Get(key); ok {
						check(blk)
					}
				case 3, 4:
					blk, _, err := c.GetOrFill(context.Background(), key, func(context.Context) ([]byte, error) {
						return mk(), nil
					})
					if err != nil {
						t.Error(err)
						return
					}
					check(blk)
				case 5, 6:
					c.Put(key, mk())
				case 7:
					if i%56 == 7 {
						c.Clear()
					} else {
						c.Remove(key)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Bytes < 0 || s.Entries < 0 || s.DiskBytes < 0 {
		t.Errorf("corrupt stats: %+v", s)
	}
}
