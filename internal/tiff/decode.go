package tiff

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"nsdfgo/internal/raster"
)

// DecodeBytes parses an in-memory TIFF file produced by this package or
// any writer of baseline single-band strip TIFFs (uncompressed or
// Deflate). Both byte orders are accepted. Only the first IFD is read.
func DecodeBytes(data []byte) (*Image, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("tiff: file of %d bytes is too short for a header", len(data))
	}
	var bo binary.ByteOrder
	switch {
	case data[0] == 'I' && data[1] == 'I':
		bo = binary.LittleEndian
	case data[0] == 'M' && data[1] == 'M':
		bo = binary.BigEndian
	default:
		return nil, fmt.Errorf("tiff: bad byte-order mark %q", data[:2])
	}
	if bo.Uint16(data[2:]) != 42 {
		return nil, fmt.Errorf("tiff: bad magic %d, want 42", bo.Uint16(data[2:]))
	}
	ifdOffset := bo.Uint32(data[4:])
	d := &decoder{data: data, bo: bo}
	return d.readIFD(ifdOffset)
}

type decoder struct {
	data []byte
	bo   binary.ByteOrder
}

// field is a parsed IFD entry.
type field struct {
	typ   uint16
	count uint32
	raw   []byte // value bytes, already dereferenced if stored at an offset
}

func typeSize(t uint16) int {
	switch t {
	case typeByte, typeASCII:
		return 1
	case typeShort:
		return 2
	case typeLong:
		return 4
	case typeRational, typeDouble:
		return 8
	}
	return 0
}

func (d *decoder) readIFD(off uint32) (*Image, error) {
	if int(off)+2 > len(d.data) {
		return nil, fmt.Errorf("tiff: IFD offset %d beyond file of %d bytes", off, len(d.data))
	}
	n := int(d.bo.Uint16(d.data[off:]))
	pos := int(off) + 2
	if pos+12*n > len(d.data) {
		return nil, fmt.Errorf("tiff: IFD of %d entries truncated", n)
	}
	fields := make(map[uint16]field, n)
	for i := 0; i < n; i++ {
		tag := d.bo.Uint16(d.data[pos:])
		typ := d.bo.Uint16(d.data[pos+2:])
		count := d.bo.Uint32(d.data[pos+4:])
		size := typeSize(typ)
		if size == 0 {
			pos += 12
			continue // unknown field type: skip, per the TIFF spec
		}
		total := size * int(count)
		var raw []byte
		if total <= 4 {
			raw = d.data[pos+8 : pos+8+total]
		} else {
			voff := d.bo.Uint32(d.data[pos+8:])
			if int(voff)+total > len(d.data) {
				return nil, fmt.Errorf("tiff: tag %d values at %d..%d beyond file", tag, voff, int(voff)+total)
			}
			raw = d.data[voff : int(voff)+total]
		}
		fields[tag] = field{typ: typ, count: count, raw: raw}
		pos += 12
	}

	width, err := d.uintField(fields, tagImageWidth)
	if err != nil {
		return nil, err
	}
	height, err := d.uintField(fields, tagImageLength)
	if err != nil {
		return nil, err
	}
	if width <= 0 || height <= 0 || width > 1<<28 || height > 1<<28 {
		return nil, fmt.Errorf("tiff: implausible dimensions %dx%d", width, height)
	}
	bits := 8
	if f, ok := fields[tagBitsPerSample]; ok {
		bits = int(d.uintAt(f, 0))
	}
	sampleFormat := uint16(1)
	if f, ok := fields[tagSampleFormat]; ok {
		sampleFormat = uint16(d.uintAt(f, 0))
	}
	samplesPerPixel := 1
	if f, ok := fields[tagSamplesPerPixel]; ok {
		samplesPerPixel = int(d.uintAt(f, 0))
	}
	if samplesPerPixel != 1 {
		return nil, fmt.Errorf("tiff: %d samples per pixel; only single-band rasters are supported", samplesPerPixel)
	}
	var dtype DType
	switch {
	case sampleFormat == 1 && bits == 8:
		dtype = Uint8
	case sampleFormat == 1 && bits == 16:
		dtype = Uint16
	case sampleFormat == 1 && bits == 32:
		dtype = Uint32
	case sampleFormat == 2 && bits == 16:
		dtype = Int16
	case sampleFormat == 3 && bits == 32:
		dtype = Float32
	case sampleFormat == 3 && bits == 64:
		dtype = Float64
	default:
		return nil, fmt.Errorf("tiff: unsupported sample format %d with %d bits", sampleFormat, bits)
	}
	compression := CompressionNone
	if f, ok := fields[tagCompression]; ok {
		compression = int(d.uintAt(f, 0))
	}
	if compression != CompressionNone && compression != CompressionDeflate {
		return nil, fmt.Errorf("tiff: unsupported compression %d", compression)
	}

	offF, ok := fields[tagStripOffsets]
	if !ok {
		return nil, fmt.Errorf("tiff: missing StripOffsets")
	}
	cntF, ok := fields[tagStripByteCounts]
	if !ok {
		return nil, fmt.Errorf("tiff: missing StripByteCounts")
	}
	if offF.count != cntF.count {
		return nil, fmt.Errorf("tiff: %d strip offsets but %d byte counts", offF.count, cntF.count)
	}
	rowsPerStrip := height
	if f, ok := fields[tagRowsPerStrip]; ok {
		rowsPerStrip = int(d.uintAt(f, 0))
		if rowsPerStrip <= 0 {
			rowsPerStrip = height
		}
	}

	sz := dtype.Size()
	bytesPerRow := width * sz
	// The strips must be able to supply the image the header declares
	// before that declaration sizes a buffer: byte for byte when stored,
	// and within DEFLATE's maximum expansion when compressed. Strips do
	// not overlap, so together they are no larger than the file.
	supply := 0
	for s := 0; s < int(offF.count); s++ {
		soff, scnt := int(d.uintAt(offF, s)), int(d.uintAt(cntF, s))
		if soff+scnt > len(d.data) {
			return nil, fmt.Errorf("tiff: strip %d at %d..%d beyond file", s, soff, soff+scnt)
		}
		supply += scnt
	}
	if supply > len(d.data) {
		return nil, fmt.Errorf("tiff: strips of %d bytes in a file of %d", supply, len(d.data))
	}
	if compression == CompressionDeflate {
		supply *= maxDeflateRatio
	}
	if bytesPerRow*height > supply {
		return nil, fmt.Errorf("tiff: %dx%d image of %d-byte samples cannot come from the strips present", width, height, sz)
	}
	pix := make([]byte, bytesPerRow*height)
	wrote := 0
	var zr io.ReadCloser // one pooled zlib reader serves every strip
	defer func() {
		if zr != nil {
			inflaters.Put(zr)
		}
	}()
	for s := 0; s < int(offF.count); s++ {
		soff, scnt := int(d.uintAt(offF, s)), int(d.uintAt(cntF, s))
		raw := d.data[soff : soff+scnt]
		y0 := s * rowsPerStrip
		rows := rowsPerStrip
		if y0+rows > height {
			rows = height - y0
		}
		if y0 < 0 || rows <= 0 {
			return nil, fmt.Errorf("tiff: strip %d starts at row %d of %d", s, y0, height)
		}
		dst := pix[y0*bytesPerRow:][:rows*bytesPerRow]
		if compression == CompressionDeflate {
			var err error
			if zr, err = stripReader(zr, raw); err == nil {
				err = inflateStrip(dst, zr)
			}
			if err != nil {
				return nil, fmt.Errorf("tiff: strip %d: %w", s, err)
			}
		} else if len(raw) < len(dst) {
			return nil, fmt.Errorf("tiff: strip %d holds %d bytes, want %d", s, len(raw), len(dst))
		} else {
			copy(dst, raw)
		}
		wrote += len(dst)
	}
	if wrote != len(pix) {
		return nil, fmt.Errorf("tiff: strips supplied %d bytes of %d", wrote, len(pix))
	}
	// Byte-swap multi-byte samples from big-endian files to native LE.
	if d.bo == binary.BigEndian && sz > 1 {
		for i := 0; i < len(pix); i += sz {
			for a, b := i, i+sz-1; a < b; a, b = a+1, b-1 {
				pix[a], pix[b] = pix[b], pix[a]
			}
		}
	}

	im := &Image{Width: width, Height: height, Type: dtype, Pix: pix}
	if ps, ok := fields[tagModelPixelScale]; ok {
		if tp, ok2 := fields[tagModelTiepoint]; ok2 && ps.count >= 2 && tp.count >= 6 {
			im.Geo = &raster.Georef{
				PixelW:  d.doubleAt(ps, 0),
				PixelH:  d.doubleAt(ps, 1),
				OriginX: d.doubleAt(tp, 3),
				OriginY: d.doubleAt(tp, 4),
			}
		}
	}
	return im, nil
}

// maxDeflateRatio is the most a DEFLATE stream can expand: a 258-byte
// match costs about two bits.
const maxDeflateRatio = 1032

// inflaters holds zlib readers between decodes: a fresh one costs about
// 40 KiB of window and tables, a strip about 64 KiB of pixels.
var inflaters sync.Pool

// stripReader points a zlib reader at strip: zr when the decode already
// holds one, else one from the pool, else a new one. The caller puts the
// reader back when the image is done, whatever Reset said.
func stripReader(zr io.ReadCloser, strip []byte) (io.ReadCloser, error) {
	src := bytes.NewReader(strip)
	if zr == nil {
		zr, _ = inflaters.Get().(io.ReadCloser)
	}
	if zr == nil {
		return zlib.NewReader(src)
	}
	return zr, zr.(zlib.Resetter).Reset(src, nil)
}

// inflateStrip decompresses the strip zr is at straight into its rows of
// the image. A strip that holds fewer bytes than its rows is an error;
// one that holds more is read to its end, so the stream's checksum is
// still verified, and the surplus dropped.
func inflateStrip(dst []byte, zr io.Reader) error {
	if n, err := io.ReadFull(zr, dst); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("holds %d bytes, want %d", n, len(dst))
		}
		return err
	}
	_, err := io.Copy(io.Discard, zr)
	return err
}

// uintField fetches a required scalar unsigned field.
func (d *decoder) uintField(fields map[uint16]field, tag uint16) (int, error) {
	f, ok := fields[tag]
	if !ok {
		return 0, fmt.Errorf("tiff: missing required tag %d", tag)
	}
	return int(d.uintAt(f, 0)), nil
}

// uintAt reads element i of a BYTE/SHORT/LONG field; an element the
// field does not hold reads as 0.
func (d *decoder) uintAt(f field, i int) uint32 {
	if i >= int(f.count) {
		return 0
	}
	switch f.typ {
	case typeByte:
		return uint32(f.raw[i])
	case typeShort:
		return uint32(d.bo.Uint16(f.raw[2*i:]))
	case typeLong:
		return d.bo.Uint32(f.raw[4*i:])
	}
	return 0
}

// doubleAt reads element i of a DOUBLE field.
func (d *decoder) doubleAt(f field, i int) float64 {
	if f.typ != typeDouble {
		return 0
	}
	return math.Float64frombits(d.bo.Uint64(f.raw[8*i:]))
}
