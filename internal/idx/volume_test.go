package idx

import (
	"context"
	"math"
	"testing"
	"testing/quick"
)

// volField fills a volume with a function of (x,y,z) so any sample can be
// verified independently.
func volField(w, h, d int) []float32 {
	data := make([]float32, w*h*d)
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				data[(z*h+y)*w+x] = float32(x + 100*y + 10000*z)
			}
		}
	}
	return data
}

func newVolumeDataset(t *testing.T, w, h, d, bitsPerBlock int) *Dataset {
	t.Helper()
	meta, err := NewMeta([]int{w, h, d}, []Field{{Name: "density", Type: Float32}})
	if err != nil {
		t.Fatal(err)
	}
	if bitsPerBlock > 0 && bitsPerBlock <= meta.Bits.Bits() {
		meta.BitsPerBlock = bitsPerBlock
	}
	ds, err := Create(context.Background(), NewMemBackend(), meta)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestVolumeWriteReadFull(t *testing.T) {
	const w, h, d = 32, 16, 8
	ds := newVolumeDataset(t, w, h, d, 8)
	data := volField(w, h, d)
	if err := ds.WriteVolume(context.Background(), "density", 0, data); err != nil {
		t.Fatal(err)
	}
	vol, stats, err := ds.ReadBox3D(context.Background(), "density", 0, ds.FullBox3(), ds.Meta.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if vol.Dims != [3]int{w, h, d} {
		t.Fatalf("dims %v", vol.Dims)
	}
	for i := range data {
		if vol.Data[i] != data[i] {
			t.Fatalf("sample %d: %v != %v", i, vol.Data[i], data[i])
		}
	}
	if stats.Samples != w*h*d {
		t.Errorf("stats.Samples = %d", stats.Samples)
	}
}

func TestVolumeSubBox(t *testing.T) {
	const w, h, d = 32, 16, 8
	ds := newVolumeDataset(t, w, h, d, 8)
	if err := ds.WriteVolume(context.Background(), "density", 0, volField(w, h, d)); err != nil {
		t.Fatal(err)
	}
	box := Box3{X0: 4, Y0: 2, Z0: 1, X1: 12, Y1: 10, Z1: 5}
	vol, _, err := ds.ReadBox3D(context.Background(), "density", 0, box, ds.Meta.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if vol.Dims != [3]int{8, 8, 4} {
		t.Fatalf("dims %v", vol.Dims)
	}
	for z := 0; z < 4; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				want := float32((4 + x) + 100*(2+y) + 10000*(1+z))
				if got := at3(vol, x, y, z); got != want {
					t.Fatalf("(%d,%d,%d) = %v, want %v", x, y, z, got, want)
				}
			}
		}
	}
}

func TestVolumeCoarseLevels(t *testing.T) {
	const w, h, d = 16, 16, 16
	ds := newVolumeDataset(t, w, h, d, 6)
	data := volField(w, h, d)
	if err := ds.WriteVolume(context.Background(), "density", 0, data); err != nil {
		t.Fatal(err)
	}
	for level := 0; level <= ds.Meta.MaxLevel(); level += 3 {
		vol, _, err := ds.ReadBox3D(context.Background(), "density", 0, ds.FullBox3(), level)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		// Every returned sample must equal the lattice point's true value.
		for z := 0; z < vol.Dims[2]; z++ {
			for y := 0; y < vol.Dims[1]; y++ {
				for x := 0; x < vol.Dims[0]; x++ {
					sx := vol.Offset[0] + x*vol.Stride[0]
					sy := vol.Offset[1] + y*vol.Stride[1]
					sz := vol.Offset[2] + z*vol.Stride[2]
					want := data[(sz*h+sy)*w+sx]
					if got := at3(vol, x, y, z); got != want {
						t.Fatalf("level %d (%d,%d,%d): %v != %v", level, x, y, z, got, want)
					}
				}
			}
		}
	}
}

func TestVolumeCoarseLevelsReadLess(t *testing.T) {
	const w, h, d = 64, 64, 32
	ds := newVolumeDataset(t, w, h, d, 10)
	if err := ds.WriteVolume(context.Background(), "density", 0, volField(w, h, d)); err != nil {
		t.Fatal(err)
	}
	_, coarse, err := ds.ReadBox3D(context.Background(), "density", 0, ds.FullBox3(), 6)
	if err != nil {
		t.Fatal(err)
	}
	_, fine, err := ds.ReadBox3D(context.Background(), "density", 0, ds.FullBox3(), ds.Meta.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if coarse.BytesRead*8 > fine.BytesRead {
		t.Errorf("coarse %d bytes vs fine %d; expected >=8x reduction", coarse.BytesRead, fine.BytesRead)
	}
}

func TestVolumeSliceZ(t *testing.T) {
	const w, h, d = 24, 12, 6
	ds := newVolumeDataset(t, w, h, d, 8)
	data := volField(w, h, d)
	if err := ds.WriteVolume(context.Background(), "density", 0, data); err != nil {
		t.Fatal(err)
	}
	slice, _, err := ds.ReadSliceZ(context.Background(), "density", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if slice.Dims != [3]int{w, h, 1} {
		t.Fatalf("slice dims %v", slice.Dims)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			want := data[(3*h+y)*w+x]
			if got := at3(slice, x, y, 0); got != want {
				t.Fatalf("(%d,%d): %v != %v", x, y, got, want)
			}
		}
	}
	if _, _, err := ds.ReadSliceZ(context.Background(), "density", 0, 99); err == nil {
		t.Error("out-of-range slice accepted")
	}
}

func TestVolumeValidation(t *testing.T) {
	ds := newVolumeDataset(t, 8, 8, 8, 6)
	if err := ds.WriteVolume(context.Background(), "density", 0, make([]float32, 10)); err == nil {
		t.Error("short volume accepted")
	}
	if err := ds.WriteVolume(context.Background(), "nope", 0, make([]float32, 512)); err == nil {
		t.Error("unknown field accepted")
	}
	if err := ds.WriteVolume(context.Background(), "density", 0, volField(8, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ds.ReadBox3D(context.Background(), "density", 0, Box3{X0: 9, X1: 10, Y1: 1, Z1: 1}, 9); err == nil {
		t.Error("out-of-range box accepted")
	}
	if _, _, err := ds.ReadBox3D(context.Background(), "density", 0, ds.FullBox3(), 99); err == nil {
		t.Error("bad level accepted")
	}
	// 2D API on a 3D dataset must refuse cleanly.
	if _, _, err := ds.ReadBox(context.Background(), "density", 0, Box{X1: 4, Y1: 4}, 6); err == nil {
		t.Error("2D read on 3D dataset accepted")
	}
}

func TestVolume2DWriteOn3DRefused(t *testing.T) {
	ds := newVolumeDataset(t, 8, 8, 8, 6)
	g := rampGrid(8, 8)
	if err := ds.WriteGrid(context.Background(), "density", 0, g); err == nil {
		t.Error("2D write on 3D dataset accepted")
	}
	// And 3D write on a 2D dataset.
	ds2d, _ := newTestDataset(t, 8, 8, float32Fields())
	if err := ds2d.WriteVolume(context.Background(), "elevation", 0, make([]float32, 64)); err == nil {
		t.Error("3D write on 2D dataset accepted")
	}
}

func TestVolumeNaNSurvives(t *testing.T) {
	ds := newVolumeDataset(t, 8, 8, 8, 6)
	data := volField(8, 8, 8)
	data[100] = float32(math.NaN())
	if err := ds.WriteVolume(context.Background(), "density", 0, data); err != nil {
		t.Fatal(err)
	}
	vol, _, err := ds.ReadBox3D(context.Background(), "density", 0, ds.FullBox3(), ds.Meta.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(vol.Data[100])) {
		t.Error("NaN lost in volume round trip")
	}
}

func TestVolumeRoundTripProperty(t *testing.T) {
	f := func(seed int64, wRaw, hRaw, dRaw uint8) bool {
		w := int(wRaw%12) + 2
		h := int(hRaw%12) + 2
		d := int(dRaw%6) + 2
		meta, err := NewMeta([]int{w, h, d}, []Field{{Name: "v", Type: Float32}})
		if err != nil {
			return false
		}
		if meta.BitsPerBlock > 6 && meta.Bits.Bits() >= 6 {
			meta.BitsPerBlock = 6
		}
		ds, err := Create(context.Background(), NewMemBackend(), meta)
		if err != nil {
			return false
		}
		data := make([]float32, w*h*d)
		s := uint64(seed)
		for i := range data {
			s = s*6364136223846793005 + 1442695040888963407
			data[i] = float32(int32(s >> 33))
		}
		if err := ds.WriteVolume(context.Background(), "v", 0, data); err != nil {
			return false
		}
		vol, _, err := ds.ReadBox3D(context.Background(), "v", 0, ds.FullBox3(), ds.Meta.MaxLevel())
		if err != nil {
			return false
		}
		for i := range data {
			if vol.Data[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkVolumeWrite64(b *testing.B) {
	meta, _ := NewMeta([]int{64, 64, 64}, []Field{{Name: "v", Type: Float32}})
	meta.BitsPerBlock = 12
	data := volField(64, 64, 64)
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, _ := Create(context.Background(), NewMemBackend(), meta)
		if err := ds.WriteVolume(context.Background(), "v", 0, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVolumeSliceZ(b *testing.B) {
	meta, _ := NewMeta([]int{64, 64, 64}, []Field{{Name: "v", Type: Float32}})
	meta.BitsPerBlock = 12
	ds, _ := Create(context.Background(), NewMemBackend(), meta)
	if err := ds.WriteVolume(context.Background(), "v", 0, volField(64, 64, 64)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.ReadSliceZ(context.Background(), "v", 0, i%64); err != nil {
			b.Fatal(err)
		}
	}
}

// at3 returns v's sample at result coordinates (x,y,z).
func at3(v *Volume3, x, y, z int) float32 {
	return v.Data[(z*v.Dims[1]+y)*v.Dims[0]+x]
}
