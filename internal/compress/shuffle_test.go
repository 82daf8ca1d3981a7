package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShuffleUnshuffleRoundTrip(t *testing.T) {
	for _, elem := range []int{2, 4, 8} {
		for _, n := range []int{0, 1, 3, elem, elem + 1, 10 * elem, 10*elem + elem/2} {
			src := make([]byte, n)
			for i := range src {
				src[i] = byte(i * 7)
			}
			got := Unshuffle(Shuffle(src, elem), elem)
			if !bytes.Equal(got, src) {
				t.Errorf("elem=%d n=%d: round trip mismatch", elem, n)
			}
		}
	}
}

func TestShuffleKnownLayout(t *testing.T) {
	// Two 4-byte elements: planes group byte positions.
	src := []byte{0xA0, 0xA1, 0xA2, 0xA3, 0xB0, 0xB1, 0xB2, 0xB3}
	got := Shuffle(src, 4)
	want := []byte{0xA0, 0xB0, 0xA1, 0xB1, 0xA2, 0xB2, 0xA3, 0xB3}
	if !bytes.Equal(got, want) {
		t.Errorf("Shuffle = %x, want %x", got, want)
	}
}

func TestShuffleZlibCodecRegistered(t *testing.T) {
	for _, name := range []string{"shuffle2-zlib", "shuffle4-zlib", "shuffle8-zlib"} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
}

func TestShuffleZlibValidatesElemSize(t *testing.T) {
	bad := ShuffleZlib{ElemSize: 3}
	if _, err := bad.Encode([]byte("xxxxxx")); err == nil {
		t.Error("elem size 3 accepted")
	}
	if _, err := bad.Decode([]byte("xxxxxx"), -1); err == nil {
		t.Error("elem size 3 accepted on decode")
	}
}

func TestShuffleZlibBeatsPlainZlibOnSmoothFloats(t *testing.T) {
	// The property behind the paper's ~20% TIFF->IDX claim.
	values := make([]byte, 4*(1<<14))
	for i := 0; i < 1<<14; i++ {
		v := float32(1500 + 400*math.Sin(float64(i)/180) + 30*math.Sin(float64(i)/7))
		binary.LittleEndian.PutUint32(values[4*i:], math.Float32bits(v))
	}
	plain, err := (Zlib{}).Encode(values)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err := (ShuffleZlib{ElemSize: 4}).Encode(values)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(shuffled)) > 0.85*float64(len(plain)) {
		t.Errorf("shuffle gave %d bytes vs plain %d; want >=15%% reduction on smooth floats", len(shuffled), len(plain))
	}
}

func TestShuffleZlibRoundTripProperty(t *testing.T) {
	c := ShuffleZlib{ElemSize: 4}
	f := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		src := make([]byte, int(n))
		r.Read(src)
		enc, err := c.Encode(src)
		if err != nil {
			return false
		}
		dec, err := c.Decode(enc, len(src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkShuffleZlibEncode(b *testing.B) {
	values := make([]byte, 4*(1<<14))
	for i := 0; i < 1<<14; i++ {
		binary.LittleEndian.PutUint32(values[4*i:], math.Float32bits(float32(math.Sin(float64(i)/100)*1000)))
	}
	c := ShuffleZlib{ElemSize: 4}
	b.SetBytes(int64(len(values)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(values); err != nil {
			b.Fatal(err)
		}
	}
}

// Shuffle transposes src (a sequence of elemSize-byte elements) into
// byte-plane order. A trailing fragment shorter than one element is
// appended unshuffled, so any payload length is accepted.
func Shuffle(src []byte, elemSize int) []byte {
	out := make([]byte, len(src))
	shuffleInto(out, src, elemSize)
	return out
}
