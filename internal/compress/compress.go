// Package compress provides the compression codecs supported by the IDX
// data format as described in the NSDF tutorial paper: lossless byte codecs
// (raw, zlib, an LZ4-style LZ77 codec implemented from scratch) and a
// ZFP-like lossy floating-point codec with a guaranteed absolute error
// bound.
//
// Byte codecs implement Codec and are identified by a stable name so that
// IDX metadata can record which codec each dataset uses. Lossy float
// compression is exposed separately through ZFPLike because its contract
// (bounded error, float32 payloads) differs from the lossless byte codecs.
package compress

import (
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Codec is a lossless byte compressor. Implementations must be safe for
// concurrent use.
type Codec interface {
	// Name returns the codec's stable identifier (e.g. "zlib").
	Name() string
	// Encode compresses src and returns a fresh buffer.
	Encode(src []byte) ([]byte, error)
	// Decode decompresses src. dstSize, when >= 0, is the expected
	// decompressed size and is used to pre-allocate; a mismatch is an error.
	Decode(src []byte, dstSize int) ([]byte, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Codec{}
)

// Register makes a codec available by name to Lookup. Registering a name
// twice panics; codec names are part of the on-disk IDX metadata and must
// be unambiguous.
func Register(c Codec) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[c.Name()]; dup {
		panic(fmt.Sprintf("compress: codec %q registered twice", c.Name()))
	}
	registry[c.Name()] = c
}

// Lookup returns the codec registered under name.
func Lookup(name string) (Codec, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
	return c, nil
}

func init() {
	Register(Raw{})
	Register(Zlib{Level: flate.DefaultCompression})
	Register(LZ4{})
}

// Raw is the identity codec: no compression.
type Raw struct{}

// Name implements Codec.
func (Raw) Name() string { return "raw" }

// Encode implements Codec by copying src.
func (Raw) Encode(src []byte) ([]byte, error) {
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// Decode implements Codec by copying src.
func (Raw) Decode(src []byte, dstSize int) ([]byte, error) {
	if dstSize >= 0 && dstSize != len(src) {
		return nil, fmt.Errorf("compress: raw payload is %d bytes, expected %d", len(src), dstSize)
	}
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// Zlib compresses with DEFLATE (the industry-standard "zlib" option of the
// IDX format). The zero value uses the default compression level.
type Zlib struct {
	// Level is the flate compression level (flate.BestSpeed..flate.BestCompression).
	Level int
}

// Name implements Codec.
func (Zlib) Name() string { return "zlib" }

// Encode implements Codec.
func (z Zlib) Encode(src []byte) ([]byte, error) {
	level := z.Level
	if level == 0 {
		level = flate.DefaultCompression
	}
	d, err := getDeflater(level)
	if err != nil {
		return nil, fmt.Errorf("compress: zlib: %w", err)
	}
	defer d.release()
	out, err := d.deflate(nil, src)
	if err != nil {
		return nil, fmt.Errorf("compress: zlib: %w", err)
	}
	return out, nil
}

// Decode implements Codec.
func (Zlib) Decode(src []byte, dstSize int) ([]byte, error) {
	z := getInflater(src)
	defer z.release()
	if dstSize < 0 {
		out, err := io.ReadAll(z.fr)
		if err != nil {
			return nil, fmt.Errorf("compress: zlib: %w", err)
		}
		return out, nil
	}
	out := make([]byte, dstSize)
	if err := z.inflateExact(out); err != nil {
		return nil, fmt.Errorf("compress: zlib: %w", err)
	}
	return out, nil
}
