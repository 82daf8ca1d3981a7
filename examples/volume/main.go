// Volume: n-dimensional IDX beyond rasters.
//
// The advanced session of the tutorial covers "handling and visualizing
// massive datasets requiring high-resolution data management" — in
// OpenVisus deployments those are usually 3D simulation volumes. This
// example builds a synthetic 3D scalar field (a subsurface soil-moisture
// column model: terrain-driven surface moisture decaying with depth,
// with wet anomalies), stores it as a 3D IDX dataset, and explores it the
// dashboard way: coarse 3D preview, Z slices at full resolution, and a
// sub-volume crop around the wettest anomaly.
//
// Run with:
//
//	go run ./examples/volume
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"nsdfgo/internal/dem"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/storage"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run walks through the example, writing what it shows to stdout.
func run(stdout io.Writer) error {
	const w, h, depth = 128, 64, 32
	const seed = 20240624

	// Build the field: surface moisture from terrain, exponential decay
	// with depth, plus three buried wet anomalies.
	fmt.Fprintln(stdout, "synthesising 128x64x32 subsurface moisture volume...")
	surface := dem.Scale(dem.FBM(w, h, seed, dem.DefaultFBM()), 0.15, 0.45)
	anomalies := [][4]float64{ // x, y, z, strength
		{30, 20, 10, 0.25},
		{90, 40, 22, 0.30},
		{64, 12, 16, 0.20},
	}
	data := make([]float32, w*h*depth)
	for z := 0; z < depth; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := float64(surface.At(x, y)) * math.Exp(-float64(z)/12)
				for _, a := range anomalies {
					dx, dy, dz := float64(x)-a[0], float64(y)-a[1], float64(z)-a[2]
					d2 := dx*dx + dy*dy + dz*dz*4
					v += a[3] * math.Exp(-d2/60)
				}
				data[(z*h+y)*w+x] = float32(v)
			}
		}
	}

	// Store as a 3D IDX dataset.
	meta, err := idx.NewMeta([]int{w, h, depth}, []idx.Field{{Name: "moisture", Type: idx.Float32}})
	if err != nil {
		return err
	}
	meta.BitsPerBlock = 12
	store := storage.NewMemStore()
	ds, err := idx.Create(context.Background(), storage.NewIDXBackend(store, ""), meta)
	if err != nil {
		return err
	}
	if err := ds.WriteVolume(context.Background(), "moisture", 0, data); err != nil {
		return err
	}
	objects, err := store.List(context.Background(), "")
	if err != nil {
		return err
	}
	var stored int64
	for _, o := range objects {
		stored += o.Size
	}
	fmt.Fprintf(stdout, "stored: %d voxels in %d blocks, %d bytes, %d resolution levels\n\n",
		w*h*depth, ds.Meta.NumBlocks(), stored, ds.Meta.MaxLevel())

	// 1. Coarse 3D preview: the whole volume at a fraction of the cost.
	preview, stats, err := ds.ReadBox3D(context.Background(), "moisture", 0, ds.FullBox3(), 9)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "coarse preview: %dx%dx%d voxels from %d bytes (%0.1f%% of the data)\n",
		preview.Dims[0], preview.Dims[1], preview.Dims[2], stats.BytesRead,
		100*float64(stats.BytesRead)/float64(stored))

	// 2. Depth profile: mean moisture per Z slice (full resolution).
	fmt.Fprintln(stdout, "\ndepth profile (mean moisture per slice):")
	for z := 0; z < depth; z += 4 {
		slice, _, err := ds.ReadSliceZ(context.Background(), "moisture", 0, z)
		if err != nil {
			return err
		}
		var sum float64
		for _, v := range slice.Data {
			sum += float64(v)
		}
		mean := sum / float64(len(slice.Data))
		fmt.Fprintf(stdout, "  z=%2d  mean %.3f  %s\n", z, mean, bar(mean*150))
	}

	// 3. Find the wettest voxel in the preview and crop around it at full
	// resolution — snipping, in 3D.
	best, bi := float32(-1), 0
	for i, v := range preview.Data {
		if v > best {
			best, bi = v, i
		}
	}
	px := preview.Offset[0] + (bi%preview.Dims[0])*preview.Stride[0]
	py := preview.Offset[1] + (bi/preview.Dims[0]%preview.Dims[1])*preview.Stride[1]
	pz := preview.Offset[2] + (bi/(preview.Dims[0]*preview.Dims[1]))*preview.Stride[2]
	fmt.Fprintf(stdout, "\nwettest preview voxel near (%d,%d,%d): %.3f\n", px, py, pz, best)

	crop := idx.Box3{X0: px - 8, Y0: py - 8, Z0: pz - 4, X1: px + 8, Y1: py + 8, Z1: pz + 4}
	vol, cropStats, err := ds.ReadBox3D(context.Background(), "moisture", 0, ds.Clip3(crop), ds.Meta.MaxLevel())
	if err != nil {
		return err
	}
	peak := float32(-1)
	for _, v := range vol.Data {
		if v > peak {
			peak = v
		}
	}
	fmt.Fprintf(stdout, "full-resolution crop %dx%dx%d: peak moisture %.3f (%d of %d blocks fetched)\n",
		vol.Dims[0], vol.Dims[1], vol.Dims[2], peak, cropStats.BlocksRead, ds.Meta.NumBlocks())
	return nil
}

func bar(n float64) string {
	if n < 0 {
		n = 0
	}
	out := make([]byte, int(n))
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
