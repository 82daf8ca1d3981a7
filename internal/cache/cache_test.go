package cache

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// newPlain builds the cache these tests pin the memory tier through: a
// Tiered with admission off, so replacement is plain LRU.
func newPlain(maxBytes int64) *Tiered {
	return newTiered(maxBytes, false)
}

// getString is a test helper: Get, copy the payload out, Release.
func getString(t testing.TB, c *Tiered, key string) (string, bool) {
	t.Helper()
	blk, ok := c.Get(key)
	if !ok {
		return "", false
	}
	s := string(blk.Bytes())
	blk.Release()
	return s, true
}

// put is a test helper: Put and immediately drop the caller reference.
func put(c *Tiered, key string, data []byte) {
	c.Put(key, data).Release()
}

func TestGetPut(t *testing.T) {
	c := newPlain(1024)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache hit")
	}
	put(c, "a", []byte("hello"))
	got, ok := getString(t, c, "a")
	if !ok || got != "hello" {
		t.Errorf("Get = %q, %v", got, ok)
	}
}

func TestEvictionBySize(t *testing.T) {
	c := newPlain(10)
	put(c, "a", []byte("12345"))
	put(c, "b", []byte("12345"))
	put(c, "c", []byte("1")) // evicts a (oldest)
	if _, ok := c.Get("a"); ok {
		t.Error("a not evicted")
	}
	if blk, ok := c.Get("b"); !ok {
		t.Error("b evicted prematurely")
	} else {
		blk.Release()
	}
	if blk, ok := c.Get("c"); !ok {
		t.Error("c missing")
	} else {
		blk.Release()
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d", s.Evictions)
	}
	if s.Bytes != 6 {
		t.Errorf("bytes = %d", s.Bytes)
	}
}

func TestLRUOrderRefreshedByGet(t *testing.T) {
	c := newPlain(10)
	put(c, "a", []byte("12345"))
	put(c, "b", []byte("12345"))
	if blk, ok := c.Get("a"); ok { // a becomes most recent
		blk.Release()
	}
	put(c, "c", []byte("1id")) // evicts b
	if _, ok := getString(t, c, "a"); !ok {
		t.Error("recently used a evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
}

func TestUpdateExistingKey(t *testing.T) {
	c := newPlain(100)
	put(c, "k", []byte("aaaa"))
	put(c, "k", []byte("bb"))
	got, ok := getString(t, c, "k")
	if !ok || got != "bb" {
		t.Errorf("updated value = %q", got)
	}
	if s := c.Stats(); s.Bytes != 2 || s.Entries != 1 {
		t.Errorf("stats after update: %+v", s)
	}
}

func TestOversizePayloadIgnored(t *testing.T) {
	c := newPlain(4)
	blk := c.Put("big", []byte("123456789"))
	// The caller can still read through the returned block even though
	// the cache declined the entry.
	if string(blk.Bytes()) != "123456789" {
		t.Errorf("declined Put returned wrong payload %q", blk.Bytes())
	}
	blk.Release()
	if _, ok := c.Get("big"); ok {
		t.Error("oversize payload cached")
	}
}

// TestDisabledCacheCountsNothing is the regression test for the
// disabled-cache telemetry bug: a zero-capacity cache used to count a
// miss on every Get, so nsdf_cache_misses_total reported traffic for a
// cache that is off.
func TestDisabledCacheCountsNothing(t *testing.T) {
	c := newPlain(0)
	put(c, "a", []byte("x"))
	if _, ok := c.Get("a"); ok {
		t.Error("zero-capacity cache stored data")
	}
	for i := 0; i < 5; i++ {
		c.Get("a")
	}
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Errorf("disabled cache counted traffic: hits=%d misses=%d", s.Hits, s.Misses)
	}
	if s.HitRate() != 0 {
		t.Errorf("disabled cache hit rate = %v", s.HitRate())
	}
}

func TestRemoveAndClear(t *testing.T) {
	c := newPlain(100)
	put(c, "a", []byte("1"))
	put(c, "b", []byte("2"))
	c.Remove("a")
	if _, ok := c.Get("a"); ok {
		t.Error("removed key present")
	}
	c.Remove("missing") // no-op
	c.Clear()
	if _, ok := c.Get("b"); ok {
		t.Error("cleared key present")
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Errorf("stats after clear: %+v", s)
	}
}

func TestStatsCounters(t *testing.T) {
	c := newPlain(100)
	put(c, "a", []byte("1"))
	getString(t, c, "a")
	getString(t, c, "a")
	c.Get("x")
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Errorf("hits=%d misses=%d", s.Hits, s.Misses)
	}
	if r := s.HitRate(); r < 0.66 || r > 0.67 {
		t.Errorf("hit rate %v", r)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty hit rate not 0")
	}
}

func TestBytesInvariantProperty(t *testing.T) {
	// After any sequence of puts, tracked bytes equals the sum of live
	// entries and never exceeds the bound.
	f := func(ops []uint16) bool {
		c := newPlain(64)
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%16)
			size := int(op % 20)
			put(c, key, make([]byte, size))
		}
		s := c.Stats()
		if s.Bytes > 64 {
			return false
		}
		var total int64
		c.mem.mu.Lock()
		for _, el := range c.mem.items {
			total += int64(el.Value.(*entry).blk.Len())
		}
		c.mem.mu.Unlock()
		return total == s.Bytes && len(c.mem.items) == s.Entries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGetHit(b *testing.B) {
	c := newPlain(1 << 20)
	put(c, "key", make([]byte, 4096))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk, _ := c.Get("key")
		blk.Release()
	}
}

func BenchmarkPutEvict(b *testing.B) {
	c := newPlain(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		put(c, fmt.Sprintf("k%d", i), make([]byte, 1024))
	}
}

// TestPutAdoptsBuffer guards the zero-copy contract: Put adopts the
// caller's buffer (no copy), and Get returns the same backing storage.
func TestPutAdoptsBuffer(t *testing.T) {
	c := newPlain(1 << 20)
	buf := []byte{1, 2, 3, 4}
	blk := c.Put("k", buf)
	if &blk.Bytes()[0] != &buf[0] {
		t.Fatal("Put copied the payload instead of adopting it")
	}
	blk.Release()
	got, ok := c.Get("k")
	if !ok {
		t.Fatal("entry missing")
	}
	if &got.Bytes()[0] != &buf[0] {
		t.Fatal("Get returned a copy instead of the shared buffer")
	}
	got.Release()
}

// TestEvictedBlockSurvivesWhileHeld is the refcount safety property: a
// reader holding a Block keeps its buffer alive across eviction, and
// the buffer is recycled only after the last reference drops.
func TestEvictedBlockSurvivesWhileHeld(t *testing.T) {
	c := newPlain(8)
	payload := []byte{10, 20, 30, 40}
	c.Put("a", payload).Release()
	held, ok := c.Get("a")
	if !ok {
		t.Fatal("a missing")
	}
	// Evict a while the reader still holds it.
	put(c, "b", make([]byte, 8))
	if _, ok := c.Get("a"); ok {
		t.Fatal("a not evicted")
	}
	if held.refCount() != 1 {
		t.Fatalf("held block refcount = %d, want 1 (reader only)", held.refCount())
	}
	// The buffer must not have been recycled into the pool while the
	// reader still holds it.
	if got := c.pool.get(4); got != nil {
		t.Fatal("evicted buffer recycled while a reader still held it")
	}
	for i, want := range []byte{10, 20, 30, 40} {
		if held.Bytes()[i] != want {
			t.Fatalf("held data corrupted at %d: %d", i, held.Bytes()[i])
		}
	}
	held.Release()
	// Now fully released, the buffer goes back to the pool and the next
	// same-size request reuses it.
	if got := c.pool.get(4); got == nil || &got[0] != &payload[0] {
		t.Fatal("released buffer not recycled into the pool")
	}
}

func TestBlockOverReleasePanics(t *testing.T) {
	blk := NewBlock([]byte{1})
	blk.Release()
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	blk.Release()
}

func TestBlockAcquireAfterReleasePanics(t *testing.T) {
	blk := NewBlock([]byte{1})
	blk.Release()
	defer func() {
		if recover() == nil {
			t.Error("acquire-after-release did not panic")
		}
	}()
	blk.Acquire()
}

func TestFreqSketch(t *testing.T) {
	s := newFreqSketch(1024)
	if got := s.estimate("cold"); got != 0 {
		t.Errorf("untouched estimate = %d", got)
	}
	s.touch("hot") // doorkeeper only
	if got := s.estimate("hot"); got != 1 {
		t.Errorf("after 1 touch estimate = %d", got)
	}
	for i := 0; i < 10; i++ {
		s.touch("hot")
	}
	if got := s.estimate("hot"); got < 5 {
		t.Errorf("after 11 touches estimate = %d", got)
	}
	hot := s.estimate("hot")
	s.reset()
	if got := s.estimate("hot"); got >= hot {
		t.Errorf("reset did not age: %d -> %d", hot, got)
	}
}

// TestLRUStressRace exercises concurrent mixed Get/Put/Remove/Clear
// under -race, with payload verification to catch any buffer recycled
// while still referenced.
func TestLRUStressRace(t *testing.T) {
	c := newPlain(4 << 10) // small: constant eviction + pool churn
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (w*31 + i) % 32
				key := fmt.Sprintf("k%d", k)
				switch i % 7 {
				case 0, 1, 2:
					if blk, ok := c.Get(key); ok {
						for _, b := range blk.Bytes() {
							if b != byte(k) {
								t.Errorf("key %s served foreign payload %d", key, b)
								break
							}
						}
						blk.Release()
					}
				case 3, 4, 5:
					data := make([]byte, 64+k)
					for j := range data {
						data[j] = byte(k)
					}
					c.Put(key, data).Release()
				case 6:
					if i%35 == 6 {
						c.Clear()
					} else {
						c.Remove(key)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s := c.Stats(); s.Bytes < 0 || s.Entries < 0 {
		t.Errorf("corrupt stats: %+v", s)
	}
}
