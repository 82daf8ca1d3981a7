package idx

import (
	"context"
	"math"
	"testing"

	"nsdfgo/internal/dem"
)

func TestLossyFieldRoundTripWithinTolerance(t *testing.T) {
	const tol = 0.01
	meta, err := NewMeta([]int{128, 128}, []Field{{Name: "elevation", Type: Float32, Codec: "zfp-0.01"}})
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 10
	be := newBackend()
	ds, err := Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	g := dem.Scale(dem.FBM(128, 128, 3, dem.DefaultFBM()), 0, 2000)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		t.Fatal(err)
	}
	out, _, err := ds.ReadFull(context.Background(), "elevation", 0)
	if err != nil {
		t.Fatal(err)
	}
	maxErr := 0.0
	for i := range g.Data {
		if d := math.Abs(float64(g.Data[i] - out.Data[i])); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > tol {
		t.Errorf("max error %v exceeds tolerance %v", maxErr, tol)
	}
	if maxErr == 0 {
		t.Error("lossy codec produced exact values over a whole terrain field; suspicious")
	}
}

func TestLossyFieldSmallerThanLossless(t *testing.T) {
	g := dem.Scale(dem.FBM(128, 128, 3, dem.DefaultFBM()), 0, 2000)
	stored := func(codec string) int64 {
		meta, err := NewMeta([]int{128, 128}, []Field{{Name: "f", Type: Float32, Codec: codec}})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := Create(context.Background(), newBackend(), meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteGrid(context.Background(), "f", 0, g); err != nil {
			t.Fatal(err)
		}
		n, err := ds.StoredBytes(context.Background(), "f", 0)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	lossless := stored("shuffle4-zlib")
	lossy := stored("zfp-0.1")
	if lossy*2 > lossless {
		t.Errorf("zfp-0.1 stored %d bytes vs lossless %d; expected >=2x reduction", lossy, lossless)
	}
}

func TestLossyCodecRequiresFloat32(t *testing.T) {
	_, err := NewMeta([]int{16, 16}, []Field{{Name: "h", Type: Uint8, Codec: "zfp-0.01"}})
	if err == nil {
		t.Error("lossy codec on uint8 field accepted")
	}
}
