package tiff

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// deflateStripFile encodes a w×h float32 image as one Deflate strip and
// returns the file and the offset and length of that strip's zlib stream.
func deflateStripFile(t *testing.T, w, h int) (data []byte, im *Image, off, n int) {
	t.Helper()
	im = makeFloat32Image(w, h)
	rand.New(rand.NewSource(1)).Read(im.Pix[:len(im.Pix)/3]) // some bytes no match reaches
	var buf bytes.Buffer
	if err := Encode(&buf, im, EncodeOptions{Compression: CompressionDeflate, RowsPerStrip: h}); err != nil {
		t.Fatal(err)
	}
	data = buf.Bytes()
	off = int(binary.LittleEndian.Uint32(ifdValue(t, data, tagStripOffsets)))
	n = int(binary.LittleEndian.Uint32(ifdValue(t, data, tagStripByteCounts)))
	return data, im, off, n
}

// ifdValue returns the value field of the first IFD's entry for tag.
func ifdValue(t *testing.T, data []byte, tag uint16) []byte {
	t.Helper()
	ifd := int(binary.LittleEndian.Uint32(data[4:]))
	for i, n := 0, int(binary.LittleEndian.Uint16(data[ifd:])); i < n; i++ {
		e := data[ifd+2+12*i:]
		if binary.LittleEndian.Uint16(e) == tag {
			return e[8:12]
		}
	}
	t.Fatalf("no tag %d", tag)
	return nil
}

// TestDeflateStripWithExtraRows: a strip whose stream holds more rows than
// the image has is read to its end, its checksum verified, and the extra
// rows dropped. The surplus here is far longer than DEFLATE's window.
func TestDeflateStripWithExtraRows(t *testing.T) {
	const w, h, keep = 256, 200, 90
	data, im, _, _ := deflateStripFile(t, w, h)
	binary.LittleEndian.PutUint16(ifdValue(t, data, tagImageLength), keep)
	got, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Height != keep || !bytes.Equal(got.Pix, im.Pix[:4*w*keep]) {
		t.Fatalf("decoded %dx%d, want the first %d rows of the strip", got.Width, got.Height, keep)
	}
}

// TestDeflateStripChecksumVerified: a corrupted Adler-32 trailer is an
// error, whether the strip holds exactly its rows or more.
func TestDeflateStripChecksumVerified(t *testing.T) {
	for _, keep := range []uint16{200, 90} {
		data, _, off, n := deflateStripFile(t, 256, 200)
		binary.LittleEndian.PutUint16(ifdValue(t, data, tagImageLength), keep)
		data[off+n-1] ^= 0x40
		if _, err := DecodeBytes(data); err == nil {
			t.Errorf("%d rows: a strip with a corrupt Adler-32 was accepted", keep)
		}
	}
}

// TestDeflateStripPresetDictionaryRejected: a strip whose zlib header sets
// FDICT names a dictionary the decoder does not have.
func TestDeflateStripPresetDictionaryRejected(t *testing.T) {
	data, _, off, _ := deflateStripFile(t, 16, 16)
	data[off+1] = data[off+1]&0xc0 | 0x20
	data[off+1] |= byte((31 - binary.BigEndian.Uint16(data[off:])%31) % 31) // FCHECK
	if binary.BigEndian.Uint16(data[off:])%31 != 0 || data[off+1]&0x20 == 0 {
		t.Fatal("test built a bad header")
	}
	if _, err := DecodeBytes(data); err == nil {
		t.Error("a strip with a preset dictionary was accepted")
	}
}
