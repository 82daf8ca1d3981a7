package idx

import (
	"fmt"
	"strconv"
	"strings"

	"nsdfgo/internal/compress"
	"nsdfgo/internal/hz"
	"nsdfgo/internal/raster"
)

// Field describes one variable stored in an IDX dataset (the dashboard's
// dataset dropdown lists these).
type Field struct {
	// Name identifies the field; it appears in object keys and must match
	// [A-Za-z0-9_-]+.
	Name string
	// Type is the sample type.
	Type DType
	// Codec names the lossless compression applied to each block ("raw",
	// "zlib", "lz4").
	Codec string
	// Fill is the value stored for padded samples outside the logical box.
	// Padding compresses to almost nothing regardless (it is constant),
	// but a fill near the field's typical magnitude renders better at
	// coarse levels near the border.
	Fill float32
}

// Meta is the parsed content of a dataset's .idx descriptor.
type Meta struct {
	// Version is the descriptor version (currently 1).
	Version int
	// Dims is the logical box extent per axis (width, height, ...).
	Dims []int
	// Bits is the HZ interleaving pattern covering the pow2-padded box.
	Bits hz.Bitmask
	// BitsPerBlock sets the block size: each block holds 2^BitsPerBlock
	// samples in HZ order.
	BitsPerBlock int
	// Timesteps is the number of time slices (>= 1); the dashboard's time
	// slider ranges over these.
	Timesteps int
	// Fields lists the stored variables.
	Fields []Field
	// Geo optionally georeferences the dataset.
	Geo *raster.Georef
}

// DefaultCodec returns the block codec used when a field does not name
// one: byte-shuffled DEFLATE matched to the sample width for multi-byte
// types (the filter that gives IDX its size advantage over plain
// DEFLATE containers on scientific floats), plain DEFLATE for bytes.
func DefaultCodec(d DType) string {
	switch d.Size() {
	case 2:
		return "shuffle2-zlib"
	case 4:
		return "shuffle4-zlib"
	case 8:
		return "shuffle8-zlib"
	default:
		return "zlib"
	}
}

// DefaultBitsPerBlock is the block size used when none is specified:
// 2^16 samples per block (256 KiB of float32), matching OpenVisus's
// common configuration.
const DefaultBitsPerBlock = 16

// MetaObjectName is the backend object holding the dataset descriptor.
const MetaObjectName = "dataset.idx"

// NewMeta constructs a Meta for a 2D dataset with the given dimensions and
// fields, guessing the bitmask and applying defaults.
func NewMeta(dims []int, fields []Field) (Meta, error) {
	if len(dims) == 0 {
		return Meta{}, fmt.Errorf("idx: no dimensions")
	}
	for i, d := range dims {
		if d <= 0 {
			return Meta{}, fmt.Errorf("idx: dimension %d is %d; must be positive", i, d)
		}
	}
	if len(fields) == 0 {
		return Meta{}, fmt.Errorf("idx: a dataset needs at least one field")
	}
	mask, err := hz.Guess(dims)
	if err != nil {
		return Meta{}, err
	}
	m := Meta{
		Version:      1,
		Dims:         append([]int(nil), dims...),
		Bits:         mask,
		BitsPerBlock: DefaultBitsPerBlock,
		Timesteps:    1,
		Fields:       append([]Field(nil), fields...),
	}
	for i := range m.Fields {
		if m.Fields[i].Codec == "" {
			m.Fields[i].Codec = DefaultCodec(m.Fields[i].Type)
		}
	}
	if m.BitsPerBlock > m.Bits.Bits() {
		m.BitsPerBlock = m.Bits.Bits()
	}
	return m, m.Validate()
}

// Validate checks the descriptor's invariants.
func (m *Meta) Validate() error {
	if m.Version != 1 {
		return fmt.Errorf("idx: unsupported descriptor version %d", m.Version)
	}
	if len(m.Dims) == 0 || len(m.Dims) != m.Bits.Dims() {
		return fmt.Errorf("idx: %d dims but bitmask addresses %d", len(m.Dims), m.Bits.Dims())
	}
	for a, d := range m.Dims {
		if d <= 0 {
			return fmt.Errorf("idx: dimension %d is %d", a, d)
		}
		if d > 1<<m.Bits.AxisBits(a) {
			return fmt.Errorf("idx: dimension %d extent %d exceeds bitmask capacity %d", a, d, 1<<m.Bits.AxisBits(a))
		}
	}
	// In-block sample offsets are 32-bit (hz.TilePlan).
	if maxBPB := min(m.Bits.Bits(), 32); m.BitsPerBlock < 1 || m.BitsPerBlock > maxBPB {
		return fmt.Errorf("idx: bitsperblock %d outside [1,%d]", m.BitsPerBlock, maxBPB)
	}
	if m.Timesteps < 1 {
		return fmt.Errorf("idx: %d timesteps", m.Timesteps)
	}
	if len(m.Fields) == 0 {
		return fmt.Errorf("idx: no fields")
	}
	seen := map[string]bool{}
	for _, f := range m.Fields {
		if !validFieldName(f.Name) {
			return fmt.Errorf("idx: invalid field name %q", f.Name)
		}
		if seen[f.Name] {
			return fmt.Errorf("idx: duplicate field %q", f.Name)
		}
		seen[f.Name] = true
		if _, err := compress.Lookup(f.Codec); err != nil {
			return fmt.Errorf("idx: field %q: %w", f.Name, err)
		}
		if strings.HasPrefix(f.Codec, "zfp") && f.Type != Float32 {
			return fmt.Errorf("idx: field %q: lossy codec %q requires float32 samples", f.Name, f.Codec)
		}
	}
	return nil
}

func validFieldName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Field returns the named field's descriptor.
func (m *Meta) Field(name string) (Field, error) {
	for _, f := range m.Fields {
		if f.Name == name {
			return f, nil
		}
	}
	return Field{}, fmt.Errorf("idx: dataset has no field %q", name)
}

// MaxLevel returns the finest HZ resolution level (== total bitmask bits).
func (m *Meta) MaxLevel() int { return m.Bits.Bits() }

// NumBlocks returns the number of blocks per field per timestep.
func (m *Meta) NumBlocks() int {
	total := uint64(1) << m.Bits.Bits()
	per := uint64(1) << m.BitsPerBlock
	return int((total + per - 1) / per)
}

// BlockSamples returns the number of samples per block.
func (m *Meta) BlockSamples() int { return 1 << m.BitsPerBlock }

// MarshalText renders the descriptor in the line-oriented .idx format:
//
//	idx(1)
//	box 0 299 0 199
//	bits V0101...
//	bitsperblock 16
//	timesteps 3
//	geo -90.31 36.68 0.000277 0.000277
//	field elevation float32 zlib fill=0
func (m *Meta) MarshalText() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "idx(%d)\n", m.Version)
	sb.WriteString("box")
	for _, d := range m.Dims {
		fmt.Fprintf(&sb, " 0 %d", d-1)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "bits %s\n", m.Bits)
	fmt.Fprintf(&sb, "bitsperblock %d\n", m.BitsPerBlock)
	fmt.Fprintf(&sb, "timesteps %d\n", m.Timesteps)
	if m.Geo != nil {
		fmt.Fprintf(&sb, "geo %g %g %g %g\n", m.Geo.OriginX, m.Geo.OriginY, m.Geo.PixelW, m.Geo.PixelH)
	}
	for _, f := range m.Fields {
		fmt.Fprintf(&sb, "field %s %s %s fill=%g\n", f.Name, f.Type, f.Codec, f.Fill)
	}
	return []byte(sb.String()), nil
}

// UnmarshalText parses the .idx descriptor format written by MarshalText.
func (m *Meta) UnmarshalText(data []byte) error {
	*m = Meta{}
	lines := strings.Split(string(data), "\n")
	for lineNo, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		key := fields[0]
		args := fields[1:]
		var err error
		switch {
		case strings.HasPrefix(key, "idx(") && strings.HasSuffix(key, ")"):
			m.Version, err = strconv.Atoi(key[4 : len(key)-1])
		case key == "box":
			err = m.parseBox(args)
		case key == "bits":
			if len(args) != 1 {
				err = fmt.Errorf("want 1 argument")
				break
			}
			m.Bits, err = hz.Parse(args[0])
		case key == "bitsperblock":
			if len(args) != 1 {
				err = fmt.Errorf("want 1 argument")
				break
			}
			m.BitsPerBlock, err = strconv.Atoi(args[0])
		case key == "timesteps":
			if len(args) != 1 {
				err = fmt.Errorf("want 1 argument")
				break
			}
			m.Timesteps, err = strconv.Atoi(args[0])
		case key == "geo":
			err = m.parseGeo(args)
		case key == "field":
			err = m.parseField(args)
		default:
			err = fmt.Errorf("unknown directive %q", key)
		}
		if err != nil {
			return fmt.Errorf("idx: descriptor line %d (%q): %w", lineNo+1, line, err)
		}
	}
	return m.Validate()
}

func (m *Meta) parseBox(args []string) error {
	if len(args) == 0 || len(args)%2 != 0 {
		return fmt.Errorf("box needs pairs of bounds")
	}
	m.Dims = nil
	for i := 0; i < len(args); i += 2 {
		lo, err := strconv.Atoi(args[i])
		if err != nil {
			return err
		}
		hi, err := strconv.Atoi(args[i+1])
		if err != nil {
			return err
		}
		if lo != 0 || hi < lo {
			return fmt.Errorf("box axis [%d,%d] must start at 0", lo, hi)
		}
		m.Dims = append(m.Dims, hi+1)
	}
	return nil
}

func (m *Meta) parseGeo(args []string) error {
	if len(args) != 4 {
		return fmt.Errorf("geo needs 4 values")
	}
	vals := make([]float64, 4)
	for i, a := range args {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	m.Geo = &raster.Georef{OriginX: vals[0], OriginY: vals[1], PixelW: vals[2], PixelH: vals[3]}
	return nil
}

func (m *Meta) parseField(args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("field needs name, type, codec")
	}
	dt, err := ParseDType(args[1])
	if err != nil {
		return err
	}
	f := Field{Name: args[0], Type: dt, Codec: args[2]}
	for _, extra := range args[3:] {
		if v, ok := strings.CutPrefix(extra, "fill="); ok {
			fv, err := strconv.ParseFloat(v, 32)
			if err != nil {
				return fmt.Errorf("fill: %w", err)
			}
			f.Fill = float32(fv)
		}
	}
	m.Fields = append(m.Fields, f)
	return nil
}
