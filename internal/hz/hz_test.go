package hz

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in   string
		bits int
		dims int
	}{
		{"V01", 2, 2},
		{"01", 2, 2},
		{"V0101", 4, 2},
		{"V012012", 6, 3},
		{"V0", 1, 1},
		{"V000111", 6, 2},
	}
	for _, c := range cases {
		b, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if b.Bits() != c.bits {
			t.Errorf("Parse(%q).Bits() = %d, want %d", c.in, b.Bits(), c.bits)
		}
		if b.Dims() != c.dims {
			t.Errorf("Parse(%q).Dims() = %d, want %d", c.in, b.Dims(), c.dims)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	for _, in := range []string{"", "V", "Vab", "V0x1", "V0101010101010101010101010101010101010101010101010101010101010101"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParseRoundTripString(t *testing.T) {
	b := MustParse("0101")
	if b.String() != "V0101" {
		t.Errorf("String() = %q, want V0101", b.String())
	}
}

func TestGuessSquare(t *testing.T) {
	b, err := Guess([]int{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	if b.Bits() != 16 {
		t.Errorf("Bits() = %d, want 16", b.Bits())
	}
	if b.AxisBits(0) != 8 || b.AxisBits(1) != 8 {
		t.Errorf("AxisBits = %d,%d, want 8,8", b.AxisBits(0), b.AxisBits(1))
	}
}

func TestGuessRectangular(t *testing.T) {
	// 1024 x 64: axis 0 needs 10 bits, axis 1 needs 6. The first 4 coarse
	// bits should all be axis 0.
	b, err := Guess([]int{1024, 64})
	if err != nil {
		t.Fatal(err)
	}
	if b.Bits() != 16 {
		t.Fatalf("Bits() = %d, want 16", b.Bits())
	}
	if !strings.HasPrefix(b.String(), "V0000") {
		t.Errorf("mask %s: the first 4 coarse bits are not all axis 0", b)
	}
	if d := pow2Dims(b); d[0] != 1024 || d[1] != 64 {
		t.Errorf("padded dims = %v, want [1024 64]", d)
	}
}

func TestGuessNonPow2Pads(t *testing.T) {
	b, err := Guess([]int{300, 200})
	if err != nil {
		t.Fatal(err)
	}
	if d := pow2Dims(b); d[0] != 512 || d[1] != 256 {
		t.Errorf("padded dims = %v, want [512 256]", d)
	}
}

func TestGuessDegenerate(t *testing.T) {
	b, err := Guess([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Bits() != 1 {
		t.Errorf("Bits() = %d, want 1", b.Bits())
	}
}

func TestGuessErrors(t *testing.T) {
	if _, err := Guess(nil); err == nil {
		t.Error("Guess(nil) succeeded")
	}
	if _, err := Guess([]int{0, 4}); err == nil {
		t.Error("Guess with zero dim succeeded")
	}
	if _, err := Guess([]int{-1}); err == nil {
		t.Error("Guess with negative dim succeeded")
	}
	if _, err := Guess([]int{1 << 40, 1 << 40}); err == nil {
		t.Error("Guess exceeding 62 bits succeeded")
	}
}

func TestInterleaveKnownValues(t *testing.T) {
	// Mask V0101: characters (coarse->fine) 0,1,0,1.
	// Finest char (index 3, axis 1) -> z bit 0 = y bit 0.
	// index 2 (axis 0) -> z bit 1 = x bit 0.
	// index 1 (axis 1) -> z bit 2 = y bit 1.
	// index 0 (axis 0) -> z bit 3 = x bit 1.
	b := MustParse("V0101")
	cases := []struct {
		x, y int
		z    uint64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{1, 0, 2},
		{1, 1, 3},
		{0, 2, 4},
		{2, 0, 8},
		{3, 3, 15},
	}
	for _, c := range cases {
		if got := b.Interleave([]int{c.x, c.y}); got != c.z {
			t.Errorf("Interleave(%d,%d) = %d, want %d", c.x, c.y, got, c.z)
		}
	}
}

func TestDeinterleaveInvertsInterleave(t *testing.T) {
	b := MustParse("V010101")
	p := make([]int, 2)
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			z := b.Interleave([]int{x, y})
			b.Deinterleave(z, p)
			if p[0] != x || p[1] != y {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", x, y, z, p[0], p[1])
			}
		}
	}
}

func TestInterleaveBijectionProperty(t *testing.T) {
	b := MustParse("V0120120") // 3D, uneven bits
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := []int{r.Intn(1 << b.AxisBits(0)), r.Intn(1 << b.AxisBits(1)), r.Intn(1 << b.AxisBits(2))}
		z := b.Interleave(p)
		q := make([]int, 3)
		b.Deinterleave(z, q)
		return q[0] == p[0] && q[1] == p[1] && q[2] == p[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestZHZRoundTripProperty(t *testing.T) {
	const m = 20
	f := func(z uint64) bool {
		z &= (1 << m) - 1
		return HZToZ(ZToHZ(z, m), m) == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHZIsBijectionOnFullGrid(t *testing.T) {
	const m = 12
	seen := make([]bool, 1<<m)
	for z := uint64(0); z < 1<<m; z++ {
		h := ZToHZ(z, m)
		if h >= 1<<m {
			t.Fatalf("ZToHZ(%d) = %d out of range", z, h)
		}
		if seen[h] {
			t.Fatalf("HZ address %d produced twice", h)
		}
		seen[h] = true
	}
}

func TestZToHZKnownValues(t *testing.T) {
	// m=4. z=0 -> 0. z=8 (1000b, tz=3, level 1) -> 1.
	// z=4 (0100b, tz=2, level 2) -> 2; z=12 (1100b) -> 3.
	// z=2 (tz=1, level 3) -> 4; z=6 -> 5; z=10 -> 6; z=14 -> 7.
	// z=1 (tz=0, level 4) -> 8; z=3 -> 9; ... z=15 -> 15.
	cases := []struct{ z, h uint64 }{
		{0, 0}, {8, 1}, {4, 2}, {12, 3},
		{2, 4}, {6, 5}, {10, 6}, {14, 7},
		{1, 8}, {3, 9}, {5, 10}, {15, 15},
	}
	for _, c := range cases {
		if got := ZToHZ(c.z, 4); got != c.h {
			t.Errorf("ZToHZ(%d,4) = %d, want %d", c.z, got, c.h)
		}
		if got := HZToZ(c.h, 4); got != c.z {
			t.Errorf("HZToZ(%d,4) = %d, want %d", c.h, got, c.z)
		}
	}
}

// TestLevelRange checks the layout ZToHZ documents: level l, the z
// addresses with m-l trailing zeros, occupies HZ addresses
// [2^(l-1), 2^l), and level 0 is [0,1).
func TestLevelRange(t *testing.T) {
	const m = 8
	for z := uint64(0); z < 1<<m; z++ {
		lo, hi := uint64(0), uint64(1)
		if z != 0 {
			l := m - bits.TrailingZeros64(z)
			lo, hi = 1<<(l-1), 1<<l
		}
		if h := ZToHZ(z, m); h < lo || h >= hi {
			t.Fatalf("ZToHZ(%d,%d) = %d, outside its level's range [%d,%d)", z, m, h, lo, hi)
		}
	}
}

func TestPointHZRoundTrip(t *testing.T) {
	b := MustParse("V01010101")
	p := make([]int, 2)
	for x := 0; x < 16; x += 3 {
		for y := 0; y < 16; y += 3 {
			h := b.PointHZ([]int{x, y})
			b.HZPoint(h, p)
			if p[0] != x || p[1] != y {
				t.Fatalf("HZ point round trip (%d,%d) -> %d -> (%d,%d)", x, y, h, p[0], p[1])
			}
		}
	}
}

func TestLevelStridesFullAndZero(t *testing.T) {
	b := MustParse("V0101")
	s := b.LevelStrides(4)
	if s[0] != 1 || s[1] != 1 {
		t.Errorf("LevelStrides(max) = %v, want [1 1]", s)
	}
	s = b.LevelStrides(0)
	if s[0] != 4 || s[1] != 4 {
		t.Errorf("LevelStrides(0) = %v, want [4 4]", s)
	}
}

func TestLevelStridesIntermediate(t *testing.T) {
	b := MustParse("V0101")
	// Level 1: characters 1..3 remain fine -> axes 1,0,1 -> strides x=2, y=4.
	s := b.LevelStrides(1)
	if s[0] != 2 || s[1] != 4 {
		t.Errorf("LevelStrides(1) = %v, want [2 4]", s)
	}
	// Level 2: characters 2..3 -> axes 0,1 -> strides [2 2].
	s = b.LevelStrides(2)
	if s[0] != 2 || s[1] != 2 {
		t.Errorf("LevelStrides(2) = %v, want [2 2]", s)
	}
}

func TestLevelStridesMatchHZLevels(t *testing.T) {
	// Every point on the level-L lattice must have HZ level <= L, and every
	// grid point with HZ level <= L must be on the lattice.
	b := MustParse("V010101")
	for L := 0; L <= b.Bits(); L++ {
		s := b.LevelStrides(L)
		for x := 0; x < 8; x++ {
			for y := 0; y < 8; y++ {
				h := b.PointHZ([]int{x, y})
				onLattice := x%s[0] == 0 && y%s[1] == 0
				if level := bits.Len64(h); onLattice != (level <= L) {
					t.Fatalf("L=%d point (%d,%d): lattice=%v level=%d", L, x, y, onLattice, level)
				}
			}
		}
	}
}

func TestLevelStridesPanicsOutOfRange(t *testing.T) {
	b := MustParse("V01")
	defer func() {
		if recover() == nil {
			t.Error("LevelStrides(-1) did not panic")
		}
	}()
	b.LevelStrides(-1)
}

func TestCeilLog2(t *testing.T) {
	cases := []struct{ v, want int }{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}}
	for _, c := range cases {
		if got := ceilLog2(c.v); got != c.want {
			t.Errorf("ceilLog2(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHZPrefixIsCoarseVersion(t *testing.T) {
	// Reading HZ addresses [0, 2^L) must yield exactly the level-L lattice.
	b := MustParse("V01010101") // 16x16
	for L := 0; L <= 8; L++ {
		s := b.LevelStrides(L)
		want := (16 / s[0]) * (16 / s[1])
		got := 0
		p := make([]int, 2)
		for h := uint64(0); h < 1<<L; h++ {
			b.HZPoint(h, p)
			if p[0]%s[0] != 0 || p[1]%s[1] != 0 {
				t.Fatalf("L=%d: HZ %d -> (%d,%d) not on lattice stride %v", L, h, p[0], p[1], s)
			}
			got++
		}
		if got != want {
			t.Fatalf("L=%d: prefix holds %d samples, lattice has %d", L, got, want)
		}
	}
}

func BenchmarkInterleave2D(b *testing.B) {
	bm := MustParse("V01010101010101010101") // 1024x1024
	p := []int{513, 257}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = bm.Interleave(p)
	}
}

func BenchmarkPointHZ(b *testing.B) {
	bm := MustParse("V01010101010101010101")
	p := []int{513, 257}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = bm.PointHZ(p)
	}
}

func BenchmarkHZToZ(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = HZToZ(uint64(i)&0xFFFFF, 20)
	}
}

// MustParse is like Parse but panics on error. The tests use it for
// constant bitmasks.
func MustParse(s string) Bitmask {
	b, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return b
}

// pow2Dims returns the power-of-two padded grid dimensions b addresses.
func pow2Dims(b Bitmask) []int {
	out := make([]int, b.Dims())
	for a := range out {
		out[a] = 1 << b.AxisBits(a)
	}
	return out
}
