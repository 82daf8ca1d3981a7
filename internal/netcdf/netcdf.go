// Package netcdf implements the NetCDF classic file format (CDF-1), the
// second scientific container the paper's conversion step supports ("the
// file conversion to IDX is not limited to TIFF; it supports other data
// formats such as NetCDF, HDF5, RGB, raw/binary"). The implementation is
// from scratch and wire-compatible with the NetCDF classic specification
// for fixed-size (non-record) variables: big-endian scalars, 4-byte
// aligned names and attribute payloads, and the standard
// dimension/attribute/variable header lists.
//
// Earth-science products like the ESA-CCI soil-moisture files SOMOSPIE
// consumes are NetCDF; FromGrid/Grid bridge this package to the raster
// type the rest of the stack uses, including CF-style coordinate
// variables for georeferencing.
package netcdf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Type is a NetCDF external data type.
type Type int32

// NetCDF classic external types.
const (
	Byte   Type = 1
	Char   Type = 2
	Short  Type = 3
	Int    Type = 4
	Float  Type = 5
	Double Type = 6
)

// Size returns the type's size in bytes.
func (t Type) Size() int {
	switch t {
	case Byte, Char:
		return 1
	case Short:
		return 2
	case Int, Float:
		return 4
	case Double:
		return 8
	}
	return 0
}

// String returns the CDL name of the type.
func (t Type) String() string {
	switch t {
	case Byte:
		return "byte"
	case Char:
		return "char"
	case Short:
		return "short"
	case Int:
		return "int"
	case Float:
		return "float"
	case Double:
		return "double"
	}
	return fmt.Sprintf("Type(%d)", int32(t))
}

// Dim is a named dimension.
type Dim struct {
	// Name is the dimension name.
	Name string
	// Len is the dimension length. Record dimensions (Len 0 in the file)
	// are not supported by this implementation.
	Len int
}

// Attr is an attribute: a name with a string or numeric array value.
type Attr struct {
	// Name is the attribute name.
	Name string
	// Value is one of string, []int8, []int16, []int32, []float32, []float64.
	Value any
}

// ncType returns the attribute's external type.
func (a Attr) ncType() (Type, error) {
	switch a.Value.(type) {
	case string:
		return Char, nil
	case []int8:
		return Byte, nil
	case []int16:
		return Short, nil
	case []int32:
		return Int, nil
	case []float32:
		return Float, nil
	case []float64:
		return Double, nil
	}
	return 0, fmt.Errorf("netcdf: unsupported attribute value type %T", a.Value)
}

// Var is a variable over a list of dimensions.
type Var struct {
	// Name is the variable name.
	Name string
	// Type is the external type.
	Type Type
	// DimIDs indexes File.Dims, slowest-varying first.
	DimIDs []int
	// Attrs are the variable's attributes.
	Attrs []Attr
	// Data holds the variable's values in file (big-endian) order. Its
	// length must equal the product of dimension lengths times Type.Size().
	Data []byte
}

// File is an in-memory NetCDF classic dataset.
type File struct {
	// Dims is the dimension list.
	Dims []Dim
	// GlobalAttrs are the file-level attributes.
	GlobalAttrs []Attr
	// Vars is the variable list.
	Vars []Var
}

// Var returns the named variable.
func (f *File) Var(name string) (*Var, error) {
	for i := range f.Vars {
		if f.Vars[i].Name == name {
			return &f.Vars[i], nil
		}
	}
	return nil, fmt.Errorf("netcdf: no variable %q", name)
}

// VarLen returns the number of elements of a variable.
func (f *File) VarLen(v *Var) (int, error) {
	n := 1
	for _, id := range v.DimIDs {
		if id < 0 || id >= len(f.Dims) {
			return 0, fmt.Errorf("netcdf: variable %q references unknown dimension %d", v.Name, id)
		}
		l := f.Dims[id].Len
		if l > 0 && n > math.MaxInt/l {
			return 0, fmt.Errorf("netcdf: variable %q: element count overflows", v.Name)
		}
		n *= l
	}
	return n, nil
}

// Validate checks the structural invariants before encoding.
func (f *File) Validate() error {
	for i, d := range f.Dims {
		if d.Name == "" || d.Len <= 0 {
			return fmt.Errorf("netcdf: dimension %d (%q, len %d) invalid", i, d.Name, d.Len)
		}
	}
	for i := range f.Vars {
		v := &f.Vars[i]
		if v.Name == "" {
			return fmt.Errorf("netcdf: variable %d has no name", i)
		}
		if v.Type.Size() == 0 {
			return fmt.Errorf("netcdf: variable %q has invalid type", v.Name)
		}
		n, err := f.VarLen(v)
		if err != nil {
			return err
		}
		if len(v.Data) != n*v.Type.Size() {
			return fmt.Errorf("netcdf: variable %q holds %d bytes, want %d", v.Name, len(v.Data), n*v.Type.Size())
		}
		for _, a := range v.Attrs {
			if _, err := a.ncType(); err != nil {
				return fmt.Errorf("netcdf: variable %q: %w", v.Name, err)
			}
		}
	}
	for _, a := range f.GlobalAttrs {
		if _, err := a.ncType(); err != nil {
			return err
		}
	}
	return nil
}

// Header list tags.
const (
	tagDimension = 0x0A
	tagVariable  = 0x0B
	tagAttribute = 0x0C
)

// pad4 returns the number of zero bytes padding n to a 4-byte boundary.
func pad4(n int) int { return (4 - n%4) % 4 }

// writeName emits a name as length + bytes + padding.
func writeName(w *bytes.Buffer, name string) {
	binary.Write(w, binary.BigEndian, uint32(len(name)))
	w.WriteString(name)
	for i := 0; i < pad4(len(name)); i++ {
		w.WriteByte(0)
	}
}

// writeAttrs emits an attribute list (or ABSENT).
func writeAttrs(w *bytes.Buffer, attrs []Attr) error {
	if len(attrs) == 0 {
		binary.Write(w, binary.BigEndian, uint32(0))
		binary.Write(w, binary.BigEndian, uint32(0))
		return nil
	}
	binary.Write(w, binary.BigEndian, uint32(tagAttribute))
	binary.Write(w, binary.BigEndian, uint32(len(attrs)))
	for _, a := range attrs {
		typ, err := a.ncType()
		if err != nil {
			return err
		}
		writeName(w, a.Name)
		binary.Write(w, binary.BigEndian, uint32(typ))
		var payload bytes.Buffer
		switch v := a.Value.(type) {
		case string:
			payload.WriteString(v)
		case []int8:
			for _, x := range v {
				payload.WriteByte(byte(x))
			}
		case []int16:
			for _, x := range v {
				binary.Write(&payload, binary.BigEndian, x)
			}
		case []int32:
			for _, x := range v {
				binary.Write(&payload, binary.BigEndian, x)
			}
		case []float32:
			for _, x := range v {
				binary.Write(&payload, binary.BigEndian, x)
			}
		case []float64:
			for _, x := range v {
				binary.Write(&payload, binary.BigEndian, x)
			}
		}
		nelems := payload.Len() / typ.Size()
		binary.Write(w, binary.BigEndian, uint32(nelems))
		w.Write(payload.Bytes())
		for i := 0; i < pad4(payload.Len()); i++ {
			w.WriteByte(0)
		}
	}
	return nil
}

// Encode writes the dataset in NetCDF classic (CDF-1) format.
func (f *File) Encode(w io.Writer) error {
	if err := f.Validate(); err != nil {
		return err
	}
	var hdr bytes.Buffer
	hdr.WriteString("CDF\x01")
	binary.Write(&hdr, binary.BigEndian, uint32(0)) // numrecs: no record vars

	// Dimension list.
	if len(f.Dims) == 0 {
		binary.Write(&hdr, binary.BigEndian, uint32(0))
		binary.Write(&hdr, binary.BigEndian, uint32(0))
	} else {
		binary.Write(&hdr, binary.BigEndian, uint32(tagDimension))
		binary.Write(&hdr, binary.BigEndian, uint32(len(f.Dims)))
		for _, d := range f.Dims {
			writeName(&hdr, d.Name)
			binary.Write(&hdr, binary.BigEndian, uint32(d.Len))
		}
	}
	if err := writeAttrs(&hdr, f.GlobalAttrs); err != nil {
		return err
	}

	// Variable list: emit once with placeholder offsets to learn the
	// header size, then fix the offsets.
	varList := func(begins []uint32) (*bytes.Buffer, error) {
		var vl bytes.Buffer
		if len(f.Vars) == 0 {
			binary.Write(&vl, binary.BigEndian, uint32(0))
			binary.Write(&vl, binary.BigEndian, uint32(0))
			return &vl, nil
		}
		binary.Write(&vl, binary.BigEndian, uint32(tagVariable))
		binary.Write(&vl, binary.BigEndian, uint32(len(f.Vars)))
		for i := range f.Vars {
			v := &f.Vars[i]
			writeName(&vl, v.Name)
			binary.Write(&vl, binary.BigEndian, uint32(len(v.DimIDs)))
			for _, id := range v.DimIDs {
				binary.Write(&vl, binary.BigEndian, uint32(id))
			}
			if err := writeAttrs(&vl, v.Attrs); err != nil {
				return nil, err
			}
			binary.Write(&vl, binary.BigEndian, uint32(v.Type))
			vsize := len(v.Data) + pad4(len(v.Data))
			binary.Write(&vl, binary.BigEndian, uint32(vsize))
			binary.Write(&vl, binary.BigEndian, begins[i])
		}
		return &vl, nil
	}
	placeholder := make([]uint32, len(f.Vars))
	vl, err := varList(placeholder)
	if err != nil {
		return err
	}
	headerLen := hdr.Len() + vl.Len()
	begins := make([]uint32, len(f.Vars))
	offset := headerLen
	for i := range f.Vars {
		begins[i] = uint32(offset)
		offset += len(f.Vars[i].Data) + pad4(len(f.Vars[i].Data))
	}
	vl, err = varList(begins)
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	if _, err := w.Write(vl.Bytes()); err != nil {
		return err
	}
	for i := range f.Vars {
		if _, err := w.Write(f.Vars[i].Data); err != nil {
			return err
		}
		if p := pad4(len(f.Vars[i].Data)); p > 0 {
			if _, err := w.Write(make([]byte, p)); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeBytes parses an in-memory NetCDF classic (CDF-1 or CDF-2) file
// with fixed-size variables.
func DecodeBytes(data []byte) (*File, error) {
	d := &ncDecoder{data: data}
	return d.decode()
}

type ncDecoder struct {
	data []byte
	pos  int
	// wide selects 64-bit offsets (CDF-2).
	wide bool
}

// count bounds a count read from the header by what the rest of the
// file could hold — n items of at least minBytes each. Every count that
// sizes an allocation or a loop goes through it, so a hostile header
// cannot ask for more memory or time than its own length pays for.
func (d *ncDecoder) count(n uint32, minBytes int, what string) (int, error) {
	if rest := max(len(d.data)-d.pos, 0); int64(n)*int64(minBytes) > int64(rest) {
		return 0, fmt.Errorf("netcdf: %d %s at offset %d cannot fit in the %d bytes left", n, what, d.pos, rest)
	}
	return int(n), nil
}

// Smallest encodings of the header's list items: a dimension is a name
// length and a length; an attribute a name length, a type and an
// element count; a variable a name length, a dimension count, an empty
// attribute list, a type, a size and a 32-bit offset.
const (
	minDimBytes  = 8
	minAttrBytes = 12
	minVarBytes  = 28
)

func (d *ncDecoder) u32() (uint32, error) {
	if d.pos+4 > len(d.data) {
		return 0, fmt.Errorf("netcdf: truncated at offset %d", d.pos)
	}
	v := binary.BigEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *ncDecoder) offset() (int, error) {
	if !d.wide {
		v, err := d.u32()
		return int(v), err
	}
	if d.pos+8 > len(d.data) {
		return 0, fmt.Errorf("netcdf: truncated offset at %d", d.pos)
	}
	v := binary.BigEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return int(v), nil
}

func (d *ncDecoder) name() (string, error) {
	raw, err := d.u32()
	if err != nil {
		return "", err
	}
	n, err := d.count(raw, 1, "name bytes")
	if err != nil {
		return "", err
	}
	s := string(d.data[d.pos : d.pos+n])
	d.pos += n + pad4(n)
	return s, nil
}

func (d *ncDecoder) attrs() ([]Attr, error) {
	tag, err := d.u32()
	if err != nil {
		return nil, err
	}
	rawCount, err := d.u32()
	if err != nil {
		return nil, err
	}
	if tag == 0 && rawCount == 0 {
		return nil, nil
	}
	if tag != tagAttribute {
		return nil, fmt.Errorf("netcdf: expected attribute list, got tag %#x", tag)
	}
	count, err := d.count(rawCount, minAttrBytes, "attributes")
	if err != nil {
		return nil, err
	}
	out := make([]Attr, 0, count)
	for i := 0; i < count; i++ {
		name, err := d.name()
		if err != nil {
			return nil, err
		}
		typRaw, err := d.u32()
		if err != nil {
			return nil, err
		}
		typ := Type(typRaw)
		if typ.Size() == 0 {
			return nil, fmt.Errorf("netcdf: attribute %q has invalid type %d", name, typRaw)
		}
		rawElems, err := d.u32()
		if err != nil {
			return nil, err
		}
		nelems, err := d.count(rawElems, typ.Size(), "attribute elements")
		if err != nil {
			return nil, err
		}
		total := nelems * typ.Size()
		payload := d.data[d.pos : d.pos+total]
		d.pos += total + pad4(total)
		var value any
		switch typ {
		case Char:
			value = string(payload)
		case Byte:
			v := make([]int8, nelems)
			for j := range v {
				v[j] = int8(payload[j])
			}
			value = v
		case Short:
			v := make([]int16, nelems)
			for j := range v {
				v[j] = int16(binary.BigEndian.Uint16(payload[2*j:]))
			}
			value = v
		case Int:
			v := make([]int32, nelems)
			for j := range v {
				v[j] = int32(binary.BigEndian.Uint32(payload[4*j:]))
			}
			value = v
		case Float:
			v := make([]float32, nelems)
			for j := range v {
				v[j] = math.Float32frombits(binary.BigEndian.Uint32(payload[4*j:]))
			}
			value = v
		case Double:
			v := make([]float64, nelems)
			for j := range v {
				v[j] = math.Float64frombits(binary.BigEndian.Uint64(payload[8*j:]))
			}
			value = v
		}
		out = append(out, Attr{Name: name, Value: value})
	}
	return out, nil
}

func (d *ncDecoder) decode() (*File, error) {
	if len(d.data) < 8 || string(d.data[:3]) != "CDF" {
		return nil, fmt.Errorf("netcdf: not a NetCDF classic file")
	}
	switch d.data[3] {
	case 1:
	case 2:
		d.wide = true
	default:
		return nil, fmt.Errorf("netcdf: unsupported CDF version %d (HDF5-based NetCDF-4 is out of scope)", d.data[3])
	}
	d.pos = 4
	if _, err := d.u32(); err != nil { // numrecs
		return nil, err
	}
	f := &File{}

	// Dimensions.
	tag, err := d.u32()
	if err != nil {
		return nil, err
	}
	rawCount, err := d.u32()
	if err != nil {
		return nil, err
	}
	if tag == tagDimension {
		count, err := d.count(rawCount, minDimBytes, "dimensions")
		if err != nil {
			return nil, err
		}
		for i := 0; i < count; i++ {
			name, err := d.name()
			if err != nil {
				return nil, err
			}
			length, err := d.u32()
			if err != nil {
				return nil, err
			}
			if length == 0 {
				return nil, fmt.Errorf("netcdf: record dimension %q unsupported", name)
			}
			f.Dims = append(f.Dims, Dim{Name: name, Len: int(length)})
		}
	} else if tag != 0 || rawCount != 0 {
		return nil, fmt.Errorf("netcdf: expected dimension list, got tag %#x", tag)
	}

	// Global attributes.
	if f.GlobalAttrs, err = d.attrs(); err != nil {
		return nil, err
	}

	// Variables.
	tag, err = d.u32()
	if err != nil {
		return nil, err
	}
	rawCount, err = d.u32()
	if err != nil {
		return nil, err
	}
	if tag == tagVariable {
		count, err := d.count(rawCount, minVarBytes, "variables")
		if err != nil {
			return nil, err
		}
		for i := 0; i < count; i++ {
			var v Var
			if v.Name, err = d.name(); err != nil {
				return nil, err
			}
			rawDims, err := d.u32()
			if err != nil {
				return nil, err
			}
			ndims, err := d.count(rawDims, 4, "dimension ids")
			if err != nil {
				return nil, err
			}
			for j := 0; j < ndims; j++ {
				id, err := d.u32()
				if err != nil {
					return nil, err
				}
				v.DimIDs = append(v.DimIDs, int(id))
			}
			if v.Attrs, err = d.attrs(); err != nil {
				return nil, err
			}
			typRaw, err := d.u32()
			if err != nil {
				return nil, err
			}
			v.Type = Type(typRaw)
			if v.Type.Size() == 0 {
				return nil, fmt.Errorf("netcdf: variable %q has invalid type %d", v.Name, typRaw)
			}
			if _, err := d.u32(); err != nil { // vsize (may be rounded)
				return nil, err
			}
			begin, err := d.offset()
			if err != nil {
				return nil, err
			}
			n, err := f.VarLen(&v)
			if err != nil {
				return nil, err
			}
			size := v.Type.Size()
			if begin < 0 || begin > len(d.data) || n > (len(d.data)-begin)/size {
				return nil, fmt.Errorf("netcdf: variable %q: %d elements of %d bytes at offset %d run beyond the file", v.Name, n, size, begin)
			}
			v.Data = d.data[begin : begin+n*size]
			f.Vars = append(f.Vars, v)
		}
	} else if tag != 0 || rawCount != 0 {
		return nil, fmt.Errorf("netcdf: expected variable list, got tag %#x", tag)
	}
	return f, nil
}
