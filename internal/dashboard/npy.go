package dashboard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"nsdfgo/internal/query"
	"nsdfgo/internal/raster"
)

// EncodeNPY serialises a grid as a NumPy .npy (format version 1.0) array
// of shape (H, W) and dtype '<f4'. The dashboard's snipping tool offers
// this download so selections drop straight into Python analyses.
func EncodeNPY(g *raster.Grid) ([]byte, error) {
	header, err := npyHeader(g)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, len(header)+4*len(g.Data)))
	if err := writeNPY(buf, header, g.Data); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// npyHeader returns everything of g's .npy encoding that precedes the
// samples: magic, version, header length and the dict, padded with
// spaces so that the whole is a multiple of 64 ending in '\n', per the
// .npy spec.
func npyHeader(g *raster.Grid) ([]byte, error) {
	if g.W <= 0 || g.H <= 0 || len(g.Data) != g.W*g.H {
		return nil, fmt.Errorf("dashboard: malformed grid %dx%d with %d samples", g.W, g.H, len(g.Data))
	}
	dict := fmt.Sprintf("{'descr': '<f4', 'fortran_order': False, 'shape': (%d, %d), }", g.H, g.W)
	total := 6 + 2 + 2 + len(dict) + 1
	pad := (64 - total%64) % 64
	header := make([]byte, 0, total+pad)
	header = append(header, "\x93NUMPY\x01\x00"...)
	header = binary.LittleEndian.AppendUint16(header, uint16(len(dict)+pad+1))
	header = append(header, dict...)
	header = append(header, strings.Repeat(" ", pad)...)
	return append(header, '\n'), nil
}

// npyChunks holds the buffers writeNPY converts samples in. 64 KiB is
// a few socket writes' worth and still sits in L2 beside its source.
var npyChunks = sync.Pool{New: func() any { return new([64 << 10]byte) }}

// writeNPY writes header and then data as little-endian float32 to w,
// one pooled chunk at a time: the encoding is never staged whole, so a
// response costs no allocation that grows with the selection. The
// chunk goes back to the pool on every return.
func writeNPY(w io.Writer, header []byte, data []float32) error {
	chunk := npyChunks.Get().(*[64 << 10]byte)
	defer npyChunks.Put(chunk)
	n := copy(chunk[:], header) // a header is at most a few hundred bytes
	for {
		k := min(len(data), (len(chunk)-n)/4)
		out := chunk[n : n+4*k]
		for i, v := range data[:k] {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
		}
		if _, err := w.Write(chunk[:n+4*k]); err != nil {
			return err
		}
		if data = data[k:]; len(data) == 0 {
			return nil
		}
		n = 0
	}
}

// DecodeNPY parses a .npy byte stream produced by EncodeNPY (or NumPy
// itself, for little-endian float32 C-order 2D arrays). Used by tests and
// by round-trip validation in the tutorial harness.
func DecodeNPY(data []byte) (*raster.Grid, error) {
	if len(data) < 10 || string(data[:6]) != "\x93NUMPY" {
		return nil, fmt.Errorf("dashboard: not a .npy payload")
	}
	if data[6] != 1 {
		return nil, fmt.Errorf("dashboard: unsupported .npy version %d.%d", data[6], data[7])
	}
	hlen := int(binary.LittleEndian.Uint16(data[8:10]))
	if 10+hlen > len(data) {
		return nil, fmt.Errorf("dashboard: truncated .npy header")
	}
	header := string(data[10 : 10+hlen])
	if !strings.Contains(header, "'<f4'") {
		return nil, fmt.Errorf("dashboard: unsupported dtype in %q", header)
	}
	if !strings.Contains(header, "False") {
		return nil, fmt.Errorf("dashboard: fortran-order arrays unsupported")
	}
	var h, w int
	shapeIdx := strings.Index(header, "'shape':")
	if shapeIdx < 0 {
		return nil, fmt.Errorf("dashboard: no shape in %q", header)
	}
	if _, err := fmt.Sscanf(header[shapeIdx:], "'shape': (%d, %d)", &h, &w); err != nil {
		return nil, fmt.Errorf("dashboard: parse shape: %w", err)
	}
	if h <= 0 || w <= 0 {
		return nil, fmt.Errorf("dashboard: bad shape %dx%d", h, w)
	}
	payload := data[10+hlen:]
	if len(payload) != 4*w*h {
		return nil, fmt.Errorf("dashboard: payload %d bytes, want %d", len(payload), 4*w*h)
	}
	g := raster.New(w, h)
	for i := range g.Data {
		g.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return g, nil
}

// PythonScript generates the snippet the snipping tool offers alongside
// the array download: a standalone script that re-extracts the same
// view from the dashboard at a later time. req is a resolved request,
// so the script names the concrete level a sample budget chose and, on
// a 3D dataset, the plane. The dataset and field are query-escaped, so
// no name can end the Python string literal.
func PythonScript(baseURL, dataset string, req query.Request) string {
	b := req.Box
	view := fmt.Sprintf("&x0=%d&y0=%d&x1=%d&y1=%d&level=%d", b.X0, b.Y0, b.X1, b.Y1, req.Level)
	if req.Z != 0 { // Resolve zeroes Z on 2D datasets, and 0 is the default plane
		view += "&z=" + strconv.Itoa(req.Z)
	}
	return fmt.Sprintf(`# Generated by the NSDF dashboard snipping tool.
# Re-extracts the selected region as a NumPy array.
import io
import urllib.request

import numpy as np

URL = (
    "%s/api/data"
    "?dataset=%s&field=%s&t=%d"
    "%s"
)

with urllib.request.urlopen(URL) as resp:
    data = np.load(io.BytesIO(resp.read()))

print("region shape:", data.shape)
print("min=%%g max=%%g mean=%%g" %% (data.min(), data.max(), data.mean()))
`, baseURL, url.QueryEscape(dataset), url.QueryEscape(req.Field), req.Time, view)
}
