// Package fusefs reimplements the NSDF-FUSE service (Olaya et al., HPDC
// 2022): a file-system facade over S3-compatible object storage, with
// pluggable "mapping packages" that decide how files map to objects. The
// original service mounts through the Linux kernel's FUSE layer — a
// hardware/OS gate for a portable reproduction — so this package provides
// the mapping packages themselves, which nsdf-fuse drives directly over a
// store: the identical name↔key and split/join code paths the NSDF-FUSE
// paper benchmarks.
//
// Three mapping packages are provided, mirroring the design space the
// paper studies:
//
//   - OneToOne: each file is one object under the same key. Minimal
//     metadata, but large files become large single PUT/GETs.
//   - Chunked: files are split into fixed-size chunk objects plus a
//     manifest, enabling ranged and parallel access patterns.
//   - Compressed: each file is one zlib-compressed object, trading CPU
//     for transfer volume.
package fusefs

import (
	"bytes"
	"compress/zlib"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"nsdfgo/internal/storage"
)

// Mapping is a strategy for representing files as objects in a Store.
type Mapping interface {
	// Name identifies the mapping package.
	Name() string
	// Write stores the file's data under path.
	Write(ctx context.Context, store storage.Store, path string, data []byte) error
	// Read fetches the file stored under path.
	Read(ctx context.Context, store storage.Store, path string) ([]byte, error)
	// Remove deletes the file stored under path.
	Remove(ctx context.Context, store storage.Store, path string) error
	// Files lists the file paths (not raw object keys) under prefix,
	// sorted.
	Files(ctx context.Context, store storage.Store, prefix string) ([]FileInfo, error)
}

// FileInfo describes one mapped file.
type FileInfo struct {
	// Path is the file's path within the FS.
	Path string
	// Size is the file's logical (uncompressed, unsplit) size when the
	// mapping can report it cheaply; -1 when unknown without a read.
	Size int64
}

// OneToOne maps each file to a single object with the identical key.
type OneToOne struct{}

// Name implements Mapping.
func (OneToOne) Name() string { return "one-to-one" }

// Write implements Mapping.
func (OneToOne) Write(ctx context.Context, store storage.Store, path string, data []byte) error {
	return store.Put(ctx, path, data)
}

// Read implements Mapping.
func (OneToOne) Read(ctx context.Context, store storage.Store, path string) ([]byte, error) {
	return store.Get(ctx, path)
}

// Remove implements Mapping.
func (OneToOne) Remove(ctx context.Context, store storage.Store, path string) error {
	return store.Delete(ctx, path)
}

// Files implements Mapping.
func (OneToOne) Files(ctx context.Context, store storage.Store, prefix string) ([]FileInfo, error) {
	infos, err := store.List(ctx, prefix)
	if err != nil {
		return nil, err
	}
	out := make([]FileInfo, 0, len(infos))
	for _, info := range infos {
		out = append(out, FileInfo{Path: info.Key, Size: info.Size})
	}
	return out, nil
}

// Chunked splits files into fixed-size chunks plus a JSON manifest. Object
// layout for file "a/b.tif" with 2 chunks:
//
//	a/b.tif.nsdfmanifest   {"size":N,"chunk_size":C,"chunks":2}
//	a/b.tif.nsdfchunk.00000000
//	a/b.tif.nsdfchunk.00000001
type Chunked struct {
	// ChunkSize is the chunk payload size; zero defaults to 1 MiB.
	ChunkSize int
}

const (
	manifestSuffix = ".nsdfmanifest"
	chunkSuffix    = ".nsdfchunk."
)

type chunkManifest struct {
	Size      int64 `json:"size"`
	ChunkSize int   `json:"chunk_size"`
	Chunks    int   `json:"chunks"`
}

// Name implements Mapping.
func (c Chunked) Name() string { return fmt.Sprintf("chunked(%d)", c.chunkSize()) }

func (c Chunked) chunkSize() int {
	if c.ChunkSize <= 0 {
		return 1 << 20
	}
	return c.ChunkSize
}

// Write implements Mapping.
func (c Chunked) Write(ctx context.Context, store storage.Store, path string, data []byte) error {
	cs := c.chunkSize()
	chunks := (len(data) + cs - 1) / cs
	if chunks == 0 {
		chunks = 1 // empty file still gets one empty chunk
	}
	for i := 0; i < chunks; i++ {
		lo := i * cs
		hi := lo + cs
		if hi > len(data) {
			hi = len(data)
		}
		if err := store.Put(ctx, fmt.Sprintf("%s%s%08d", path, chunkSuffix, i), data[lo:hi]); err != nil {
			return fmt.Errorf("fusefs: chunk %d: %w", i, err)
		}
	}
	man, err := json.Marshal(chunkManifest{Size: int64(len(data)), ChunkSize: cs, Chunks: chunks})
	if err != nil {
		return fmt.Errorf("fusefs: manifest: %w", err)
	}
	return store.Put(ctx, path+manifestSuffix, man)
}

// Read implements Mapping.
func (c Chunked) Read(ctx context.Context, store storage.Store, path string) ([]byte, error) {
	manData, err := store.Get(ctx, path+manifestSuffix)
	if err != nil {
		return nil, err
	}
	var man chunkManifest
	if err := json.Unmarshal(manData, &man); err != nil {
		return nil, fmt.Errorf("fusefs: manifest for %q: %w", path, err)
	}
	out := make([]byte, 0, man.Size)
	for i := 0; i < man.Chunks; i++ {
		chunk, err := store.Get(ctx, fmt.Sprintf("%s%s%08d", path, chunkSuffix, i))
		if err != nil {
			return nil, fmt.Errorf("fusefs: chunk %d of %q: %w", i, path, err)
		}
		out = append(out, chunk...)
	}
	if int64(len(out)) != man.Size {
		return nil, fmt.Errorf("fusefs: %q reassembled to %d bytes, manifest says %d", path, len(out), man.Size)
	}
	return out, nil
}

// Remove implements Mapping.
func (c Chunked) Remove(ctx context.Context, store storage.Store, path string) error {
	manData, err := store.Get(ctx, path+manifestSuffix)
	if errors.Is(err, storage.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var man chunkManifest
	if err := json.Unmarshal(manData, &man); err != nil {
		return fmt.Errorf("fusefs: manifest for %q: %w", path, err)
	}
	for i := 0; i < man.Chunks; i++ {
		if err := store.Delete(ctx, fmt.Sprintf("%s%s%08d", path, chunkSuffix, i)); err != nil {
			return err
		}
	}
	return store.Delete(ctx, path+manifestSuffix)
}

// Files implements Mapping.
func (c Chunked) Files(ctx context.Context, store storage.Store, prefix string) ([]FileInfo, error) {
	infos, err := store.List(ctx, prefix)
	if err != nil {
		return nil, err
	}
	var out []FileInfo
	for _, info := range infos {
		path, ok := strings.CutSuffix(info.Key, manifestSuffix)
		if !ok {
			continue
		}
		var man chunkManifest
		size := int64(-1)
		if manData, err := store.Get(ctx, info.Key); err == nil && json.Unmarshal(manData, &man) == nil {
			size = man.Size
		}
		out = append(out, FileInfo{Path: path, Size: size})
	}
	return out, nil
}

// Compressed maps each file to one zlib-compressed object under the same
// key with a ".nsdfz" suffix. The object starts with an 8-byte
// little-endian header recording the uncompressed size, so listings can
// report logical sizes without decompressing.
type Compressed struct{}

const compressedSuffix = ".nsdfz"

// Name implements Mapping.
func (Compressed) Name() string { return "compressed" }

// Write implements Mapping.
func (Compressed) Write(ctx context.Context, store storage.Store, path string, data []byte) error {
	var buf bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(data)))
	buf.Write(hdr[:])
	zw := zlib.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		return fmt.Errorf("fusefs: compress %q: %w", path, err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("fusefs: compress %q: %w", path, err)
	}
	return store.Put(ctx, path+compressedSuffix, buf.Bytes())
}

// Read implements Mapping.
func (Compressed) Read(ctx context.Context, store storage.Store, path string) ([]byte, error) {
	enc, err := store.Get(ctx, path+compressedSuffix)
	if err != nil {
		return nil, err
	}
	if len(enc) < 8 {
		return nil, fmt.Errorf("fusefs: %q: truncated compressed object", path)
	}
	size := binary.LittleEndian.Uint64(enc)
	zr, err := zlib.NewReader(bytes.NewReader(enc[8:]))
	if err != nil {
		return nil, fmt.Errorf("fusefs: decompress %q: %w", path, err)
	}
	defer zr.Close()
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("fusefs: decompress %q: %w", path, err)
	}
	if uint64(len(data)) != size {
		return nil, fmt.Errorf("fusefs: %q: decompressed to %d bytes, header says %d", path, len(data), size)
	}
	return data, nil
}

// Remove implements Mapping.
func (Compressed) Remove(ctx context.Context, store storage.Store, path string) error {
	return store.Delete(ctx, path+compressedSuffix)
}

// Files implements Mapping.
func (Compressed) Files(ctx context.Context, store storage.Store, prefix string) ([]FileInfo, error) {
	infos, err := store.List(ctx, prefix)
	if err != nil {
		return nil, err
	}
	var out []FileInfo
	for _, info := range infos {
		path, ok := strings.CutSuffix(info.Key, compressedSuffix)
		if !ok {
			continue
		}
		size := int64(-1)
		// Fetch just the object to read the 8-byte header. The Store API
		// has no ranged reads; on a real S3 endpoint this would be a
		// Range: bytes=0-7 request.
		if enc, err := store.Get(ctx, info.Key); err == nil && len(enc) >= 8 {
			size = int64(binary.LittleEndian.Uint64(enc))
		}
		out = append(out, FileInfo{Path: path, Size: size})
	}
	return out, nil
}
