package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"sync"
)

// Codec state and scratch are pooled; payloads never are. Every slice a
// codec returns is freshly allocated at exactly its length and belongs
// to the caller (the block cache shares decoded blocks between readers
// for minutes), so nothing handed out may alias pooled memory.

// grow returns scratch resized to n bytes, reallocating only when a
// larger block than any before comes through. The contents are
// unspecified.
func grow(scratch []byte, n int) []byte {
	if cap(scratch) < n {
		return make([]byte, n)
	}
	return scratch[:n]
}

// deflater is reusable DEFLATE encoder state: the flate writer (about
// 800 KiB of hash chains and window when built fresh), the buffer the
// stream is collected in before an exact-size copy is handed out, and
// scratch for a filtered copy of the input.
type deflater struct {
	level   int
	fw      *flate.Writer
	out     bytes.Buffer
	scratch []byte
}

// deflaters holds one pool per flate level, HuffmanOnly (-2) through
// BestCompression (9): a writer's level is fixed when it is built.
var deflaters [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

// getDeflater returns encoder state for a flate level. Pair with
// release.
func getDeflater(level int) (*deflater, error) {
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return nil, fmt.Errorf("invalid compression level %d", level)
	}
	if d, ok := deflaters[level-flate.HuffmanOnly].Get().(*deflater); ok {
		return d, nil
	}
	d := &deflater{level: level}
	fw, err := flate.NewWriter(&d.out, level)
	if err != nil {
		return nil, err
	}
	d.fw = fw
	return d, nil
}

func (d *deflater) release() { deflaters[d.level-flate.HuffmanOnly].Put(d) }

// deflate returns prefix followed by the DEFLATE stream of src, in a
// slice of exactly that length. Reset makes a reused writer equivalent
// to a new one, so the bytes do not depend on what it compressed before.
func (d *deflater) deflate(prefix, src []byte) ([]byte, error) {
	d.out.Reset()
	d.out.Write(prefix)
	d.fw.Reset(&d.out)
	if _, err := d.fw.Write(src); err != nil {
		return nil, err
	}
	if err := d.fw.Close(); err != nil {
		return nil, err
	}
	out := make([]byte, d.out.Len())
	copy(out, d.out.Bytes())
	return out, nil
}
