// Quickstart: the smallest end-to-end use of the NSDF-Go stack.
//
// It synthesises a small DEM, stores it as a multiresolution IDX dataset,
// and streams it back progressively — first a coarse preview, then full
// resolution — printing how little data each preview needs. This is the
// core NSDF idea in ~60 lines: you never fetch more than the resolution
// you are looking at.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"nsdfgo/internal/convert"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
)

func main() {
	// 1. Generate a 256x256 synthetic elevation model (deterministic).
	elevation := dem.Scale(dem.FBM(256, 256, 42, dem.DefaultFBM()), 0, 2000)
	fmt.Println("generated 256x256 synthetic DEM")

	// 2. Convert the grid to an IDX dataset in memory. The samples are
	// reordered along the hierarchical Z-order curve and stored as
	// independently compressed blocks of 2^12 = 4096 samples.
	backend := idx.NewMemBackend()
	ds, err := convert.ToIDXWith(context.Background(), backend,
		[]convert.Input{{FieldName: "elevation", Grid: elevation}}, convert.IDXOptions{BitsPerBlock: 12})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored as IDX: %d blocks, %d bytes total\n", backend.NumObjects()-1, backend.TotalBytes())

	// 3. Stream it back progressively through the storage-oblivious query
	// API: coarse levels arrive from a tiny prefix of the data.
	engine := query.New(ds, 16<<20)
	err = engine.Progressive(
		context.Background(),
		query.Request{Field: "elevation", Level: query.LevelFull},
		4, 4,
		func(r query.Result) error {
			fmt.Printf("  level %2d: %4dx%-4d grid from %6d compressed bytes\n",
				r.Level, r.Grid.W, r.Grid.H, r.Stats.BytesRead)
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Ad-hoc analysis of a subregion, dashboard-style.
	res, err := engine.Read(context.Background(), query.Request{
		Field: "elevation",
		Box:   idx.Box{X0: 64, Y0: 64, X1: 192, Y1: 192},
		Level: query.LevelFull,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := res.Grid.ComputeStats()
	fmt.Printf("central 128x128 region: min=%.1f m, max=%.1f m, mean=%.1f m\n", st.Min, st.Max, st.Mean)
}
