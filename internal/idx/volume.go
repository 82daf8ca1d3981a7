package idx

import (
	"context"
	"fmt"

	"nsdfgo/internal/hz"
)

// The IDX format is n-dimensional; OpenVisus routinely serves 3D and 4D
// simulation volumes. This file is the volumetric API: WriteVolume and
// ReadBox3D over datasets whose Meta has three dimensions, thin wrappers
// over the block path's one reader and writer (blockpath.go). Samples
// are addressed (x, y, z) with x fastest-varying in the flat slice, i.e.
// index = (z*H + y)*W + x.

// Box3 is a half-open 3D region.
type Box3 struct {
	// X0, Y0, Z0 are the inclusive lower corner.
	X0, Y0, Z0 int
	// X1, Y1, Z1 are the exclusive upper corner.
	X1, Y1, Z1 int
}

// Empty reports whether the box contains no voxels.
func (b Box3) Empty() bool { return b.X1 <= b.X0 || b.Y1 <= b.Y0 || b.Z1 <= b.Z0 }

// FullBox3 returns the dataset's entire 3D extent.
func (d *Dataset) FullBox3() Box3 {
	return Box3{X1: d.Meta.Dims[0], Y1: d.Meta.Dims[1], Z1: d.Meta.Dims[2]}
}

// Clip3 intersects the box with the dataset's logical extent.
func (d *Dataset) Clip3(b Box3) Box3 {
	clamp := func(v, hi int) int {
		if v < 0 {
			return 0
		}
		if v > hi {
			return hi
		}
		return v
	}
	b.X0, b.X1 = clamp(b.X0, d.Meta.Dims[0]), clamp(b.X1, d.Meta.Dims[0])
	b.Y0, b.Y1 = clamp(b.Y0, d.Meta.Dims[1]), clamp(b.Y1, d.Meta.Dims[1])
	b.Z0, b.Z1 = clamp(b.Z0, d.Meta.Dims[2]), clamp(b.Z1, d.Meta.Dims[2])
	return b
}

// WriteVolume stores a full-resolution 3D volume as timestep t of the
// named field. data must hold Dims[0]*Dims[1]*Dims[2] samples, x fastest.
// Cancelling ctx aborts the worker pool at its next block claim.
func (d *Dataset) WriteVolume(ctx context.Context, field string, t int, data []float32) error {
	if err := d.wantDims("WriteVolume", 3); err != nil {
		return err
	}
	return d.writeField(ctx, "idx.write3d", field, t, data)
}

// Volume3 is a dense 3D query result: Data holds Dims[0]*Dims[1]*Dims[2]
// samples, x fastest-varying.
type Volume3 struct {
	// Dims are the result extents (x, y, z).
	Dims [3]int
	// Data holds the samples.
	Data []float32
	// Offset is the full-resolution coordinate of the result's first
	// sample; Stride is the sampling stride per axis at the read level.
	Offset, Stride [3]int
}

// At returns the sample at result coordinates (x,y,z).
func (v *Volume3) At(x, y, z int) float32 {
	return v.Data[(z*v.Dims[1]+y)*v.Dims[0]+x]
}

// ReadBox3D extracts the level-L lattice samples within box from a 3D
// dataset: ReadBox with a third axis, on the same reader. ctx bounds
// every block fetch; cancellation returns the context error.
func (d *Dataset) ReadBox3D(ctx context.Context, field string, t int, box Box3, level int) (*Volume3, *ReadStats, error) {
	if err := d.wantDims("ReadBox3D", 3); err != nil {
		return nil, nil, err
	}
	return d.readLattice(ctx, "idx.read3d", field, t,
		[hz.Axes]int{box.X0, box.Y0, box.Z0}, [hz.Axes]int{box.X1, box.Y1, box.Z1}, level)
}

// ReadSliceZ extracts one full-resolution XY slice at depth z — the 3D
// analogue of the dashboard's slicing tools.
func (d *Dataset) ReadSliceZ(ctx context.Context, field string, t, z int) (*Volume3, *ReadStats, error) {
	if err := d.wantDims("ReadSliceZ", 3); err != nil {
		return nil, nil, err
	}
	if z < 0 || z >= d.Meta.Dims[2] {
		return nil, nil, fmt.Errorf("idx: slice depth %d outside [0,%d)", z, d.Meta.Dims[2])
	}
	box := d.FullBox3()
	box.Z0, box.Z1 = z, z+1
	return d.ReadBox3D(ctx, field, t, box, d.Meta.MaxLevel())
}
