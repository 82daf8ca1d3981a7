package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// diskTier is the optional second cache level below the in-memory LRU:
// memory evictions spill here, and misses that hit on disk are promoted
// back. Entries are flat files named by the SHA-256 of the block key,
// holding the raw payload. The directory is a cache, not a store: it is
// wiped at startup, and every write is best-effort (an I/O error just
// forgets the entry; correctness never depends on the tier).
type diskTier struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	ll      *list.List // front = most recent
	items   map[string]*list.Element
	entries atomic.Int64
	bytes   atomic.Int64
}

type diskEntry struct {
	key  string
	size int64
}

// newDiskTier creates (or reuses) dir as a disk cache bounded to
// maxBytes, wiping any leftover entries from a previous run.
func newDiskTier(dir string, maxBytes int64) (*diskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: create disk tier dir: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: read disk tier dir: %w", err)
	}
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".blk") {
			continue
		}
		if err := os.Remove(filepath.Join(dir, de.Name())); err != nil {
			return nil, fmt.Errorf("cache: wipe disk tier: %w", err)
		}
	}
	return &diskTier{
		dir:      dir,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}, nil
}

// path maps a block key to its file, hashing so arbitrary key bytes
// cannot escape the directory.
func (d *diskTier) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+".blk")
}

// put spills a payload to disk, best-effort. Oversized payloads and I/O
// failures are silently skipped; a failed write leaves no index entry.
func (d *diskTier) put(key string, data []byte) {
	size := int64(len(data))
	if size > d.maxBytes {
		return
	}
	p := d.path(key)
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		d.discard(tmp)
		return
	}
	if err := os.Rename(tmp, p); err != nil {
		d.discard(tmp)
		return
	}
	drop := make([]string, 0, 4) // eviction rarely displaces more than a few entries
	d.mu.Lock()
	if el, ok := d.items[key]; ok {
		e := el.Value.(*diskEntry)
		d.bytes.Add(size - e.size)
		e.size = size
		d.ll.MoveToFront(el)
	} else {
		d.items[key] = d.ll.PushFront(&diskEntry{key: key, size: size})
		d.entries.Add(1)
		d.bytes.Add(size)
	}
	for d.bytes.Load() > d.maxBytes {
		el := d.ll.Back()
		if el == nil {
			break
		}
		e := el.Value.(*diskEntry)
		d.ll.Remove(el)
		delete(d.items, e.key)
		d.entries.Add(-1)
		d.bytes.Add(-e.size)
		drop = append(drop, d.path(e.key))
	}
	d.mu.Unlock()
	for _, p := range drop {
		d.discard(p)
	}
}

// get reads the payload for key into a fresh buffer of exactly its
// size, which the caller owns (DESIGN.md §16). A read failure (file
// vanished, truncated) demotes to a miss and forgets the entry.
func (d *diskTier) get(key string) ([]byte, bool) {
	d.mu.Lock()
	el, ok := d.items[key]
	if !ok {
		d.mu.Unlock()
		return nil, false
	}
	size := el.Value.(*diskEntry).size
	d.ll.MoveToFront(el)
	d.mu.Unlock()

	f, err := os.Open(d.path(key))
	if err != nil {
		d.forget(key)
		return nil, false
	}
	buf := make([]byte, size)
	_, err = io.ReadFull(f, buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		d.forget(key)
		return nil, false
	}
	return buf, true
}

// remove invalidates key (writes through from WriteRegion / store Put).
func (d *diskTier) remove(key string) {
	d.forget(key)
	d.discard(d.path(key))
}

// forget drops key from the index without touching the file.
func (d *diskTier) forget(key string) {
	d.mu.Lock()
	if el, ok := d.items[key]; ok {
		e := el.Value.(*diskEntry)
		d.ll.Remove(el)
		delete(d.items, key)
		d.entries.Add(-1)
		d.bytes.Add(-e.size)
	}
	d.mu.Unlock()
}

// clear empties the tier.
func (d *diskTier) clear() {
	d.mu.Lock()
	keys := make([]string, 0, d.ll.Len())
	for el := d.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*diskEntry).key)
	}
	d.ll.Init()
	d.items = make(map[string]*list.Element)
	d.entries.Store(0)
	d.bytes.Store(0)
	d.mu.Unlock()
	for _, key := range keys {
		d.discard(d.path(key))
	}
}

// discard removes a cache file, tolerating its absence. Any other
// removal error only costs disk space until the next startup wipe: the
// index no longer references the file, so nothing can read it.
func (d *diskTier) discard(p string) {
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return
	}
}
