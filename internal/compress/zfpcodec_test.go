package compress

import (
	"encoding/binary"
	"math"
	"testing"
)

func TestZFPCodecRegistered(t *testing.T) {
	for _, name := range []string{"zfp-0.001", "zfp-0.01", "zfp-0.1", "zfp-1"} {
		c, err := Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
			continue
		}
		if c.Name() != name {
			t.Errorf("Name() = %q", c.Name())
		}
	}
}

func TestZFPCodecByteInterfaceBoundedError(t *testing.T) {
	// Through the generic Codec interface, float32 payloads round trip
	// within the tolerance.
	values := make([]float32, 1024)
	for i := range values {
		values[i] = float32(500 + 200*math.Sin(float64(i)/40))
	}
	src := make([]byte, 4*len(values))
	for i, v := range values {
		binary.LittleEndian.PutUint32(src[4*i:], math.Float32bits(v))
	}
	c, err := Lookup("zfp-0.01")
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(src) {
		t.Errorf("lossy codec did not compress smooth data: %d -> %d", len(src), len(enc))
	}
	dec, err := c.Decode(enc, len(src))
	if err != nil {
		t.Fatal(err)
	}
	back := make([]float32, len(values))
	for i := range back {
		back[i] = math.Float32frombits(binary.LittleEndian.Uint32(dec[4*i:]))
	}
	if e := MaxAbsError(values, back); e > 0.01 {
		t.Errorf("max error %v exceeds tolerance 0.01", e)
	}
}

func TestZFPCodecRejectsUnalignedPayload(t *testing.T) {
	c, _ := Lookup("zfp-0.01")
	if _, err := c.Encode([]byte{1, 2, 3}); err == nil {
		t.Error("unaligned payload accepted")
	}
}

func TestZFPCodecSizeMismatch(t *testing.T) {
	c, _ := Lookup("zfp-0.01")
	enc, err := c.Encode(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(enc, 32); err == nil {
		t.Error("wrong size hint accepted")
	}
}

func TestZFPTighterToleranceCostsMoreBytes(t *testing.T) {
	values := make([]float32, 4096)
	for i := range values {
		values[i] = float32(1000 * math.Sin(float64(i)/100))
	}
	src := make([]byte, 4*len(values))
	for i, v := range values {
		binary.LittleEndian.PutUint32(src[4*i:], math.Float32bits(v))
	}
	var sizes []int
	for _, name := range []string{"zfp-1", "zfp-0.1", "zfp-0.01", "zfp-0.001"} {
		c, _ := Lookup(name)
		enc, err := c.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(enc))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Errorf("tolerance sweep sizes not increasing: %v", sizes)
		}
	}
}

// MaxAbsError returns the largest absolute difference between a and b,
// ignoring pairs where both are NaN. It is the quantity ZFPLike bounds.
func MaxAbsError(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	maxErr := 0.0
	for i := range a {
		fa, fb := float64(a[i]), float64(b[i])
		if math.IsNaN(fa) && math.IsNaN(fb) {
			continue
		}
		if d := math.Abs(fa - fb); d > maxErr {
			maxErr = d
		}
	}
	return maxErr
}
