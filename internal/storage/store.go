// Package storage implements the data storage services the NSDF tutorial
// workflow uploads to, downloads from, and streams from: a generic object
// Store interface with in-memory and on-disk implementations, an HTTP
// object service and client (the shape of an S3-compatible endpoint), a
// private bearer-token-protected deployment standing in for Seal Storage,
// a public repository with persistent identifiers and metadata standing in
// for Dataverse, and a WAN conditioner injecting latency, bandwidth and
// transient failures so streaming experiments behave like remote access.
package storage

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrNotExist reports a missing object.
var ErrNotExist = errors.New("storage: object does not exist")

// ErrUnauthorized reports a rejected credential.
var ErrUnauthorized = errors.New("storage: unauthorized")

// ObjectInfo describes a stored object.
type ObjectInfo struct {
	// Key is the object's name.
	Key string
	// Size is the payload length in bytes.
	Size int64
	// ETag is a content hash usable for validation.
	ETag string
	// ModTime is the last write time.
	ModTime time.Time
}

// Store is the object-storage abstraction shared by every NSDF storage
// service. Implementations must be safe for concurrent use.
type Store interface {
	// Put stores data under key, replacing any existing object.
	Put(ctx context.Context, key string, data []byte) error
	// Get returns the object under key, or ErrNotExist.
	Get(ctx context.Context, key string) ([]byte, error)
	// Delete removes the object under key; deleting a missing object is
	// not an error.
	Delete(ctx context.Context, key string) error
	// Stat returns metadata for the object under key, or ErrNotExist.
	Stat(ctx context.Context, key string) (ObjectInfo, error)
	// List returns metadata for all objects whose key begins with prefix,
	// sorted by key.
	List(ctx context.Context, prefix string) ([]ObjectInfo, error)
}

// etag computes the content hash used for ETags.
func etag(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// ValidKey reports whether key is acceptable: non-empty, slash-separated
// segments, no empty or dot-dot segments, no leading slash.
func ValidKey(key string) bool {
	if key == "" || strings.HasPrefix(key, "/") || strings.Contains(key, "//") {
		return false
	}
	for _, seg := range strings.Split(key, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return false
		}
	}
	return true
}

// MemStore is an in-memory Store.
type MemStore struct {
	mu      sync.RWMutex
	objects map[string]memObject
}

type memObject struct {
	data    []byte
	modTime time.Time
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objects: make(map[string]memObject)}
}

// Put implements Store.
func (s *MemStore) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !ValidKey(key) {
		return fmt.Errorf("storage: invalid key %q", key)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[key] = memObject{data: cp, modTime: time.Now()}
	return nil
}

// Get implements Store.
func (s *MemStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, key)
	}
	out := make([]byte, len(obj.data))
	copy(out, obj.data)
	return out, nil
}

// Delete implements Store.
func (s *MemStore) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, key)
	return nil
}

// Stat implements Store.
func (s *MemStore) Stat(ctx context.Context, key string) (ObjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return ObjectInfo{}, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[key]
	if !ok {
		return ObjectInfo{}, fmt.Errorf("%w: %q", ErrNotExist, key)
	}
	return ObjectInfo{Key: key, Size: int64(len(obj.data)), ETag: etag(obj.data), ModTime: obj.modTime}, nil
}

// List implements Store.
func (s *MemStore) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ObjectInfo
	for key, obj := range s.objects {
		if strings.HasPrefix(key, prefix) {
			out = append(out, ObjectInfo{Key: key, Size: int64(len(obj.data)), ETag: etag(obj.data), ModTime: obj.modTime})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// TotalBytes returns the sum of stored payload sizes.
func (s *MemStore) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, obj := range s.objects {
		total += int64(len(obj.data))
	}
	return total
}

// FileStore is a Store rooted at a directory. Each Put stages its payload
// in a temp file of its own under root/.nsdf-tmp, a directory outside the
// key space, and renames it into place.
type FileStore struct {
	root, tmp string
}

const fileStoreTmp = ".nsdf-tmp"

// NewFileStore creates (if needed) and wraps the directory root.
func NewFileStore(root string) (*FileStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create root: %w", err)
	}
	return &FileStore{root: root, tmp: filepath.Join(root, fileStoreTmp)}, nil
}

func (s *FileStore) path(key string) (string, error) {
	if !ValidKey(key) || key == fileStoreTmp || strings.HasPrefix(key, fileStoreTmp+"/") {
		return "", fmt.Errorf("storage: invalid key %q", key)
	}
	return filepath.Join(s.root, filepath.FromSlash(key)), nil
}

// Put implements Store.
func (s *FileStore) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := s.path(key)
	if err != nil {
		return err
	}
	for _, dir := range []string{filepath.Dir(p), s.tmp} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("storage: mkdir: %w", err)
		}
	}
	f, err := os.CreateTemp(s.tmp, "put-*")
	if err != nil {
		return fmt.Errorf("storage: write: %w", err)
	}
	_, err = f.Write(data)
	if err = errors.Join(err, f.Chmod(0o644), f.Close()); err == nil { // CreateTemp makes 0600
		err = os.Rename(f.Name(), p)
	}
	if err != nil {
		return fmt.Errorf("storage: write: %w", errors.Join(err, os.Remove(f.Name())))
	}
	return nil
}

// Get implements Store.
func (s *FileStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := s.path(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, key)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read: %w", err)
	}
	return data, nil
}

// Delete implements Store.
func (s *FileStore) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: delete: %w", err)
	}
	return nil
}

// Stat implements Store.
func (s *FileStore) Stat(ctx context.Context, key string) (ObjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return ObjectInfo{}, err
	}
	p, err := s.path(key)
	if err != nil {
		return ObjectInfo{}, err
	}
	fi, err := os.Stat(p)
	if os.IsNotExist(err) {
		return ObjectInfo{}, fmt.Errorf("%w: %q", ErrNotExist, key)
	}
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("storage: stat: %w", err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("storage: stat read: %w", err)
	}
	return ObjectInfo{Key: key, Size: fi.Size(), ETag: etag(data), ModTime: fi.ModTime()}, nil
}

// List implements Store.
func (s *FileStore) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []ObjectInfo
	err := filepath.WalkDir(s.root, func(p string, de os.DirEntry, err error) error {
		if p == s.tmp {
			return filepath.SkipDir
		}
		if err != nil || de.IsDir() {
			return err
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if !strings.HasPrefix(key, prefix) {
			return nil
		}
		fi, err := de.Info()
		if os.IsNotExist(err) {
			return nil // deleted by a concurrent Delete mid-walk: absent
		}
		if err != nil {
			return err
		}
		out = append(out, ObjectInfo{Key: key, Size: fi.Size(), ModTime: fi.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: list: %w", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}
