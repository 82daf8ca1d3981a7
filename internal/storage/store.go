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
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
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
	// ModTime is the last write time.
	ModTime time.Time
}

// Store is the object-storage abstraction shared by every NSDF storage
// service. Implementations must be safe for concurrent use.
type Store interface {
	// Put stores data under key, replacing any existing object. A key
	// is an object or a directory of other keys, never both: while "a"
	// is stored a store may refuse Put("a/x"), and while "a/x" is
	// stored it may refuse Put("a"). FileStore refuses both, as a path
	// cannot be a file and a directory at once; MemStore accepts both.
	// Once every key under "a/" is deleted, Put("a") succeeds on both.
	// A refused Put is an error and leaves the stored object unchanged.
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
	return s.keep(ctx, key, bytes.Clone(data))
}

// putBody implements bodyStore: the store keeps the buffer readBody
// filled instead of a copy of it.
func (s *MemStore) putBody(ctx context.Context, key string, body io.Reader, n int64) (int64, error) {
	data, err := readBody(body, n)
	if err != nil {
		return 0, err
	}
	return int64(len(data)), s.keep(ctx, key, data)
}

// keep stores data under key. The store owns data from here on and
// never writes to it.
func (s *MemStore) keep(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !ValidKey(key) {
		return fmt.Errorf("storage: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[key] = memObject{data: data, modTime: time.Now()}
	return nil
}

// Get implements Store.
func (s *MemStore) Get(ctx context.Context, key string) ([]byte, error) {
	data, err := s.object(ctx, key)
	return bytes.Clone(data), err
}

// getBody implements bodyStore: a stored object is never written to, so
// the server sends it without a copy.
func (s *MemStore) getBody(ctx context.Context, key string) (io.Reader, int64, func() error, error) {
	data, err := s.object(ctx, key)
	if err != nil {
		return nil, 0, nil, err
	}
	return bytes.NewReader(data), int64(len(data)), func() error { return nil }, nil
}

// object returns the stored bytes under key, which nobody may write to.
func (s *MemStore) object(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, key)
	}
	return obj.data, nil
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
	return ObjectInfo{Key: key, Size: int64(len(obj.data)), ModTime: obj.modTime}, nil
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
			out = append(out, ObjectInfo{Key: key, Size: int64(len(obj.data)), ModTime: obj.modTime})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
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
	return &FileStore{root: filepath.Clean(root), tmp: filepath.Join(root, fileStoreTmp)}, nil
}

func (s *FileStore) path(key string) (string, error) {
	if !ValidKey(key) || key == fileStoreTmp || strings.HasPrefix(key, fileStoreTmp+"/") {
		return "", fmt.Errorf("storage: invalid key %q", key)
	}
	return filepath.Join(s.root, filepath.FromSlash(key)), nil
}

// Put implements Store.
func (s *FileStore) Put(ctx context.Context, key string, data []byte) error {
	_, err := s.write(ctx, key, bytes.NewReader(data))
	return err
}

// putBody implements bodyStore: the body goes straight into the temp
// file, checked against its declared length n as it arrives.
func (s *FileStore) putBody(ctx context.Context, key string, body io.Reader, n int64) (int64, error) {
	return s.write(ctx, key, &bodyReader{r: body, n: n})
}

// write is FileStore's one write path: it copies body into a temp file
// of its own and renames that into place, so a reader of key sees the
// old object or the new one, whole. A failed copy or write leaves no
// temp file and the old object unchanged. It returns the bytes stored.
func (s *FileStore) write(ctx context.Context, key string, body io.Reader) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	p, err := s.path(key)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(s.tmp, 0o755); err != nil {
		return 0, fmt.Errorf("storage: mkdir: %w", err)
	}
	f, err := os.CreateTemp(s.tmp, "put-*")
	if err != nil {
		return 0, fmt.Errorf("storage: write: %w", err)
	}
	buf := copyBufs.Get().(*[]byte)
	// Hiding the file's ReadFrom keeps io.CopyBuffer on the pooled
	// buffer; a bytes.Reader body still goes in one Write, by WriteTo.
	n, err := io.CopyBuffer(struct{ io.Writer }{f}, body, *buf)
	copyBufs.Put(buf)
	if err = errors.Join(err, f.Chmod(0o644), f.Close()); err == nil { // CreateTemp makes 0600
		err = place(f.Name(), p)
	}
	if err != nil {
		return 0, fmt.Errorf("storage: write: %w", errors.Join(err, os.Remove(f.Name())))
	}
	return n, nil
}

// place makes p's directories and renames the staged file tmp onto p.
// A Delete of another key removes the directories it empties, so one
// may vanish while MkdirAll makes it, or before the rename lands; place
// then starts again, up to 8 times.
func place(tmp, p string) error {
	for i := 0; ; i++ {
		err := os.MkdirAll(filepath.Dir(p), 0o755)
		retry := errors.Is(err, fs.ErrExist) // made by another, then removed
		if err == nil {
			err = os.Rename(tmp, p)
			retry = notExist(err)
		}
		if !retry || i == 8 {
			return err
		}
	}
}

// copyBufs holds the buffers a streamed PUT copies through: a request
// body has no WriteTo, and a file's own ReadFrom would allocate one.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// Get implements Store.
func (s *FileStore) Get(ctx context.Context, key string) ([]byte, error) {
	body, n, release, err := s.getBody(ctx, key)
	if err != nil {
		return nil, err
	}
	defer release()
	data := make([]byte, n)
	if _, err := io.ReadFull(body, data); err != nil {
		return nil, fmt.Errorf("storage: read: %w", err)
	}
	return data, nil
}

// getBody implements bodyStore: it hands the object over as its open
// file, so Server copies it to the connection (by sendfile on Linux)
// instead of reading it whole. The limit pins the body to the size
// returned: an object is replaced by rename, never rewritten in place,
// so the open file keeps the version it had. A key that names a
// directory, or runs through an object, names no object, as in MemStore.
func (s *FileStore) getBody(ctx context.Context, key string) (io.Reader, int64, func() error, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, nil, err
	}
	p, err := s.path(key)
	if err != nil {
		return nil, 0, nil, err
	}
	f, err := os.Open(p)
	if notExist(err) {
		return nil, 0, nil, fmt.Errorf("%w: %q", ErrNotExist, key)
	}
	if err != nil {
		return nil, 0, nil, fmt.Errorf("storage: read: %w", err)
	}
	fi, err := f.Stat()
	switch {
	case err != nil:
		err = fmt.Errorf("storage: read: %w", err)
	case fi.IsDir():
		err = fmt.Errorf("%w: %q", ErrNotExist, key)
	default:
		return io.LimitReader(f, fi.Size()), fi.Size(), f.Close, nil
	}
	return nil, 0, nil, errors.Join(err, f.Close())
}

// notExist reports whether a path error means no object is there: the
// path is missing, or one of its directories is a file.
func notExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENOTDIR)
}

// Delete implements Store. A key that names a directory is no object,
// so there is nothing to delete. The directories a deletion empties go
// too, up to the root, so a key once used as a directory can be stored.
func (s *FileStore) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if fi, err := os.Lstat(p); err == nil && fi.IsDir() {
		return nil
	}
	err = os.Remove(p)
	if notExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: delete: %w", err)
	}
	// Rmdir removes only an empty directory, never an object: a
	// refusal ends the walk up and is no error.
	for dir := filepath.Dir(p); dir != s.root; dir = filepath.Dir(dir) {
		if syscall.Rmdir(dir) != nil {
			break
		}
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
	if notExist(err) || err == nil && fi.IsDir() {
		return ObjectInfo{}, fmt.Errorf("%w: %q", ErrNotExist, key)
	}
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("storage: stat: %w", err)
	}
	return ObjectInfo{Key: key, Size: fi.Size(), ModTime: fi.ModTime()}, nil
}

// List implements Store. It walks only the directory the prefix's last
// complete segment names ("a/b" for "a/b/c" and "a/b/"), the root for a
// prefix with no slash. A directory missing, or removed by a concurrent
// Delete mid-walk, holds no objects.
func (s *FileStore) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := s.root
	if i := strings.LastIndexByte(prefix, '/'); i >= 0 {
		var err error
		if start, err = s.path(prefix[:i]); err != nil {
			return nil, nil // no valid key runs through an invalid directory
		}
	}
	var out []ObjectInfo
	err := filepath.WalkDir(start, func(p string, de os.DirEntry, err error) error {
		if p == s.tmp {
			return filepath.SkipDir
		}
		if notExist(err) {
			return nil
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
