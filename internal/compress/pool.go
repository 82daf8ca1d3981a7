package compress

import (
	"bufio"
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Codec state and scratch are pooled; payloads never are. Every slice a
// codec returns is freshly allocated at exactly its length and belongs
// to the caller (the block cache shares decoded blocks between readers
// for minutes), so nothing handed out may alias pooled memory.

// inflater is reusable DEFLATE decoder state: the flate reader (about
// 40 KiB of window and Huffman tables when built fresh), the reader it
// pulls compressed bytes from, and scratch for a decoded intermediate
// that does not outlive the call.
type inflater struct {
	src     bytes.Reader
	fr      io.ReadCloser // a flate reader; also a flate.Resetter
	probe   [1]byte
	scratch []byte
	br      *bufio.Reader // byteReader's buffer, built on first use
}

var inflaters = sync.Pool{New: func() any {
	z := new(inflater)
	z.fr = flate.NewReader(&z.src)
	return z
}}

// getInflater returns an inflater positioned at the start of the
// DEFLATE stream src. Pair with release.
func getInflater(src []byte) *inflater {
	z := inflaters.Get().(*inflater)
	z.src.Reset(src)
	// Reset of a flate reader cannot fail; it returns error only to
	// satisfy flate.Resetter.
	_ = z.fr.(flate.Resetter).Reset(&z.src, nil)
	return z
}

func (z *inflater) release() {
	z.src.Reset(nil) // do not pin the caller's compressed block
	inflaters.Put(z)
}

// inflateExact fills dst from the stream, which must decode to exactly
// len(dst) bytes: a shorter stream is an error and so is one with even
// a byte more, found by reading one byte past dst rather than by
// growing a buffer until EOF.
func (z *inflater) inflateExact(dst []byte) error {
	if n, err := io.ReadFull(z.fr, dst); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("payload decoded to %d bytes, expected %d", n, len(dst))
		}
		return err
	}
	switch _, err := io.ReadFull(z.fr, z.probe[:]); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("payload decodes to more than the expected %d bytes", len(dst))
	default:
		return err
	}
}

// byteReader returns the stream as an io.ByteReader, for decoders that
// parse it as it inflates instead of materialising it.
func (z *inflater) byteReader() *bufio.Reader {
	if z.br == nil {
		z.br = bufio.NewReader(z.fr)
	} else {
		z.br.Reset(z.fr)
	}
	return z.br
}

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
