package cache

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// getString is a test helper: Get and copy the payload out.
func getString(t testing.TB, c *Tiered, key string) (string, bool) {
	t.Helper()
	blk, ok := c.Get(key)
	if !ok {
		return "", false
	}
	return string(blk.Bytes()), true
}

func TestGetPut(t *testing.T) {
	c := NewMemTiered(1024)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache hit")
	}
	c.Put("a", []byte("hello"))
	got, ok := getString(t, c, "a")
	if !ok || got != "hello" {
		t.Errorf("Get = %q, %v", got, ok)
	}
}

func TestEvictionBySize(t *testing.T) {
	c := NewMemTiered(10)
	c.Put("a", []byte("12345"))
	c.Put("b", []byte("12345"))
	c.Put("c", []byte("1")) // evicts a (oldest)
	if _, ok := c.Get("a"); ok {
		t.Error("a not evicted")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("b evicted prematurely")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c missing")
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
	c := NewMemTiered(10)
	c.Put("a", []byte("12345"))
	c.Put("b", []byte("12345"))
	c.Get("a")                // a becomes most recent
	c.Put("c", []byte("1id")) // evicts b
	if _, ok := getString(t, c, "a"); !ok {
		t.Error("recently used a evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
}

func TestUpdateExistingKey(t *testing.T) {
	c := NewMemTiered(100)
	c.Put("k", []byte("aaaa"))
	c.Put("k", []byte("bb"))
	got, ok := getString(t, c, "k")
	if !ok || got != "bb" {
		t.Errorf("updated value = %q", got)
	}
	if s := c.Stats(); s.Bytes != 2 || s.Entries != 1 {
		t.Errorf("stats after update: %+v", s)
	}
}

func TestOversizePayloadIgnored(t *testing.T) {
	c := NewMemTiered(4)
	blk := c.Put("big", []byte("123456789"))
	// The caller can still read through the returned block even though
	// the cache declined the entry.
	if string(blk.Bytes()) != "123456789" {
		t.Errorf("declined Put returned wrong payload %q", blk.Bytes())
	}
	if _, ok := c.Get("big"); ok {
		t.Error("oversize payload cached")
	}
}

// TestDisabledCacheCountsNothing is the regression test for the
// disabled-cache telemetry bug: a zero-capacity cache used to count a
// miss on every Get, so nsdf_cache_misses_total reported traffic for a
// cache that is off.
func TestDisabledCacheCountsNothing(t *testing.T) {
	c := NewMemTiered(0)
	c.Put("a", []byte("x"))
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
	c := NewMemTiered(100)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
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
	c := NewMemTiered(100)
	c.Put("a", []byte("1"))
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
		c := NewMemTiered(64)
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%16)
			size := int(op % 20)
			c.Put(key, make([]byte, size))
		}
		s := c.Stats()
		if s.Bytes > 64 {
			return false
		}
		var total int64
		c.mem.mu.Lock()
		for _, e := range c.mem.items {
			total += int64(e.blk.Len())
		}
		c.mem.mu.Unlock()
		return total == s.Bytes && len(c.mem.items) == s.Entries && len(c.mem.heap) == s.Entries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPutAdoptsBuffer guards the zero-copy contract: Put adopts the
// caller's buffer (no copy), and Get returns the same backing storage.
func TestPutAdoptsBuffer(t *testing.T) {
	c := NewMemTiered(1 << 20)
	buf := []byte{1, 2, 3, 4}
	blk := c.Put("k", buf)
	if &blk.Bytes()[0] != &buf[0] {
		t.Fatal("Put copied the payload instead of adopting it")
	}
	got, ok := c.Get("k")
	if !ok {
		t.Fatal("entry missing")
	}
	if &got.Bytes()[0] != &buf[0] {
		t.Fatal("Get returned a copy instead of the shared buffer")
	}
}

// TestHitDoesNotAllocate pins the zero-copy hit path: Get and Peek of a
// resident block allocate nothing, on a weighted memory tier like every
// shipped cache's.
func TestHitDoesNotAllocate(t *testing.T) {
	c := NewMemTiered(1 << 20)
	c.SetWeigher(func(string) float64 { return 0.25 })
	c.Put("key", make([]byte, 64<<10))
	for name, lookup := range map[string]func(string) (*Block, bool){"Get": c.Get, "Peek": c.Peek} {
		if allocs := testing.AllocsPerRun(1000, func() { lookup("key") }); allocs != 0 {
			t.Errorf("%s of a resident block: %v allocations, want 0", name, allocs)
		}
	}
}

// TestLRUStressRace exercises concurrent mixed Get/Put/Remove/Clear
// under -race, with payload verification to catch any buffer written
// to while a reader can still see it.
func TestLRUStressRace(t *testing.T) {
	c := NewMemTiered(4 << 10) // small: constant eviction
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
					}
				case 3, 4, 5:
					data := make([]byte, 64+k)
					for j := range data {
						data[j] = byte(k)
					}
					c.Put(key, data)
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
