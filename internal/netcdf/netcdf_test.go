package netcdf

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nsdfgo/internal/raster"
)

func sampleFile() *File {
	data := make([]byte, 4*6)
	for i := 0; i < 6; i++ {
		binary.BigEndian.PutUint32(data[4*i:], math.Float32bits(float32(i)*1.5))
	}
	return &File{
		Dims: []Dim{{Name: "y", Len: 2}, {Name: "x", Len: 3}},
		GlobalAttrs: []Attr{
			{Name: "title", Value: "test dataset"},
			{Name: "version", Value: []int32{3}},
		},
		Vars: []Var{{
			Name: "temp", Type: Float, DimIDs: []int{0, 1},
			Attrs: []Attr{
				{Name: "units", Value: "K"},
				{Name: "valid_range", Value: []float32{0, 400}},
			},
			Data: data,
		}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Magic must be CDF-1.
	if got := buf.Bytes()[:4]; string(got) != "CDF\x01" {
		t.Fatalf("magic %q", got)
	}
	back, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Dims) != 2 || back.Dims[0].Name != "y" || back.Dims[1].Len != 3 {
		t.Errorf("dims %+v", back.Dims)
	}
	if len(back.GlobalAttrs) != 2 {
		t.Fatalf("global attrs %+v", back.GlobalAttrs)
	}
	if back.GlobalAttrs[0].Value.(string) != "test dataset" {
		t.Errorf("title attr %v", back.GlobalAttrs[0].Value)
	}
	if back.GlobalAttrs[1].Value.([]int32)[0] != 3 {
		t.Errorf("version attr %v", back.GlobalAttrs[1].Value)
	}
	v, err := back.Var("temp")
	if err != nil {
		t.Fatal(err)
	}
	if units, ok := attr(v, "units"); !ok || units.(string) != "K" {
		t.Errorf("units attr %v", units)
	}
	if vr, ok := attr(v, "valid_range"); !ok || vr.([]float32)[1] != 400 {
		t.Errorf("valid_range %v", vr)
	}
	if !bytes.Equal(v.Data, f.Vars[0].Data) {
		t.Error("variable payload mismatch")
	}
}

func TestEncodeAllAttrTypes(t *testing.T) {
	f := &File{
		GlobalAttrs: []Attr{
			{Name: "s", Value: "str"},
			{Name: "b", Value: []int8{-1, 2}},
			{Name: "h", Value: []int16{-300}},
			{Name: "i", Value: []int32{1 << 20}},
			{Name: "f", Value: []float32{1.5}},
			{Name: "d", Value: []float64{math.Pi}},
		},
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.GlobalAttrs) != 6 {
		t.Fatalf("%d attrs", len(back.GlobalAttrs))
	}
	if back.GlobalAttrs[1].Value.([]int8)[0] != -1 {
		t.Error("int8 attr")
	}
	if back.GlobalAttrs[2].Value.([]int16)[0] != -300 {
		t.Error("int16 attr")
	}
	if back.GlobalAttrs[5].Value.([]float64)[0] != math.Pi {
		t.Error("float64 attr")
	}
}

func TestValidate(t *testing.T) {
	bad := []*File{
		{Dims: []Dim{{Name: "", Len: 3}}},
		{Dims: []Dim{{Name: "x", Len: 0}}},
		{Vars: []Var{{Name: "", Type: Float}}},
		{Vars: []Var{{Name: "v", Type: Type(99)}}},
		{Dims: []Dim{{Name: "x", Len: 4}}, Vars: []Var{{Name: "v", Type: Float, DimIDs: []int{0}, Data: make([]byte, 4)}}},
		{Vars: []Var{{Name: "v", Type: Float, DimIDs: []int{5}, Data: nil}}},
		{GlobalAttrs: []Attr{{Name: "a", Value: 3.0}}}, // bare float64 unsupported
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"not cdf":   []byte("HDF\x01\x00\x00\x00\x00"),
		"netcdf4":   []byte("CDF\x05\x00\x00\x00\x00"),
		"truncated": []byte("CDF\x01\x00\x00"),
	}
	for name, data := range cases {
		if _, err := DecodeBytes(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMultipleVariablesOffsets(t *testing.T) {
	// Data with size 5 forces padding between variables; offsets must
	// still land correctly.
	f := &File{
		Dims: []Dim{{Name: "n", Len: 5}},
		Vars: []Var{
			{Name: "a", Type: Byte, DimIDs: []int{0}, Data: []byte{1, 2, 3, 4, 5}},
			{Name: "b", Type: Byte, DimIDs: []int{0}, Data: []byte{6, 7, 8, 9, 10}},
		},
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := back.Var("b")
	if b.Data[0] != 6 || b.Data[4] != 10 {
		t.Errorf("variable b payload %v", b.Data)
	}
}

func TestGridRoundTripWithGeoref(t *testing.T) {
	g := raster.New(24, 16)
	for i := range g.Data {
		g.Data[i] = float32(i) * 0.25
	}
	g.Geo = &raster.Georef{OriginX: -90, OriginY: 36, PixelW: 0.05, PixelH: 0.04}
	f, err := FromGrid("soil_moisture", g, "m3 m-3")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Grid("soil_moisture")
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, got) {
		t.Error("sample data mismatch")
	}
	if got.Geo == nil {
		t.Fatal("georeferencing not reconstructed from coordinate variables")
	}
	if math.Abs(got.Geo.OriginX-(-90)) > 1e-9 || math.Abs(got.Geo.PixelW-0.05) > 1e-9 {
		t.Errorf("georef %+v", got.Geo)
	}
	if math.Abs(got.Geo.OriginY-36) > 1e-9 || math.Abs(got.Geo.PixelH-0.04) > 1e-9 {
		t.Errorf("georef %+v", got.Geo)
	}
	// CF units attribute present.
	v, _ := back.Var("soil_moisture")
	if u, ok := attr(v, "units"); !ok || u.(string) != "m3 m-3" {
		t.Errorf("units %v", u)
	}
}

func TestGridWithoutGeoref(t *testing.T) {
	g := raster.New(4, 4)
	f, err := FromGrid("v", g, "")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Grid("v")
	if err != nil {
		t.Fatal(err)
	}
	if got.Geo != nil {
		t.Error("phantom georeferencing")
	}
}

func TestGridRejectsWrongShape(t *testing.T) {
	f := &File{
		Dims: []Dim{{Name: "n", Len: 4}},
		Vars: []Var{{Name: "v", Type: Float, DimIDs: []int{0}, Data: make([]byte, 16)}},
	}
	if _, err := f.Grid("v"); err == nil {
		t.Error("1D variable accepted as grid")
	}
	if _, err := f.Grid("missing"); err == nil {
		t.Error("missing variable accepted")
	}
	f = &File{
		Dims: []Dim{{Name: "y", Len: 2}, {Name: "x", Len: 2}},
		Vars: []Var{{Name: "label", Type: Char, DimIDs: []int{0, 1}, Data: []byte("abcd")}},
	}
	if _, err := f.Grid("label"); err == nil || !strings.Contains(err.Error(), "non-numeric type char") {
		t.Errorf("char variable as grid: %v, want its type named", err)
	}
}

func TestGridIntegerTypes(t *testing.T) {
	data := make([]byte, 2*4)
	for i, v := range []int16{-5, 100, 2000, -30000} {
		binary.BigEndian.PutUint16(data[2*i:], uint16(v))
	}
	f := &File{
		Dims: []Dim{{Name: "y", Len: 2}, {Name: "x", Len: 2}},
		Vars: []Var{{Name: "v", Type: Short, DimIDs: []int{0, 1}, Data: data}},
	}
	g, err := f.Grid("v")
	if err != nil {
		t.Fatal(err)
	}
	if g.Data[0] != -5 || g.Data[3] != -30000 {
		t.Errorf("short widening: %v", g.Data)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, wRaw, hRaw uint8) bool {
		w := int(wRaw%20) + 2
		h := int(hRaw%20) + 2
		r := rand.New(rand.NewSource(seed))
		g := raster.New(w, h)
		for i := range g.Data {
			g.Data[i] = float32(r.NormFloat64())
		}
		nc, err := FromGrid("v", g, "1")
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := nc.Encode(&buf); err != nil {
			return false
		}
		back, err := DecodeBytes(buf.Bytes())
		if err != nil {
			return false
		}
		got, err := back.Grid("v")
		return err == nil && raster.Equal(g, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode512(b *testing.B) {
	g := raster.New(512, 512)
	for i := range g.Data {
		g.Data[i] = float32(i)
	}
	f, err := FromGrid("v", g, "m")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(g.Data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := f.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// attr returns v's attribute value by name.
func attr(v *Var, name string) (any, bool) {
	for _, a := range v.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return nil, false
}
