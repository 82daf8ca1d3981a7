// CONUS streaming: remote progressive access at scale.
//
// The tutorial's advanced session visualises the Contiguous United States
// at 30 m — far too large to download. This example builds a CONUS-like
// scene, stores it as IDX on a *cross-country conditioned* object store
// (the testbed's sdsc->mghpcc link, ~6 ms RTT time-compressed, jittered),
// and then shows what makes the dashboard usable over that link: a coarse
// national overview costs a few round trips, zooming into one state
// fetches only that state's blocks, and the block cache makes revisits
// nearly free.
//
// Run with:
//
//	go run ./examples/conus_stream
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"nsdfgo/internal/convert"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/netmon"
	"nsdfgo/internal/query"
	"nsdfgo/internal/storage"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run walks through the example, writing what it shows to stdout.
func run(stdout io.Writer) error {
	const w, h = 1024, 512

	// Build the CONUS scene and upload it to the "remote" store. The
	// conditioner delays every operation like a coast-to-coast link.
	fmt.Fprintln(stdout, "synthesising CONUS-like scene (1024x512)...")
	scene := dem.CONUS(w, h, 20240624)

	testbed, err := netmon.NewNetwork(netmon.Testbed(), 1)
	if err != nil {
		return err
	}
	link, err := testbed.Profile("sdsc", "mghpcc")
	if err != nil {
		return err
	}
	remoteStore := storage.NewConditioned(storage.NewMemStore(), link, 1)
	start := time.Now()
	ds, err := convert.ToIDXWith(context.Background(), storage.NewIDXBackend(remoteStore, "conus_30m"),
		[]convert.Input{{FieldName: "elevation", Grid: scene}}, convert.IDXOptions{BitsPerBlock: 13})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "uploaded to remote store in %.1fs (%d blocks)\n\n",
		time.Since(start).Seconds(), ds.Meta.NumBlocks())

	engine := query.New(ds, 128<<20)

	// 1. National overview: progressive refinement of the full extent.
	fmt.Fprintln(stdout, "== national overview, refining progressively over the WAN ==")
	err = engine.Progressive(context.Background(), query.Request{Field: "elevation", Level: 16}, 6, 2,
		func(r query.Result) error {
			fmt.Fprintf(stdout, "  level %2d: %4dx%-3d  %7d bytes  %3d blocks fetched\n",
				r.Level, r.Grid.W, r.Grid.H, r.Stats.BytesRead, r.Stats.BlocksRead)
			return nil
		})
	if err != nil {
		return err
	}

	// 2. Zoom into a "state": a 128x96 window over the Rockies at full
	// resolution. Only the blocks under the window cross the wire.
	rockies := idx.Box{X0: 160, Y0: 120, X1: 288, Y1: 216}
	start = time.Now()
	res, err := engine.Read(context.Background(), query.Request{Field: "elevation", Box: rockies, Level: query.LevelFull})
	if err != nil {
		return err
	}
	st := res.Grid.ComputeStats()
	fmt.Fprintf(stdout, "\n== zoom into the Rockies window ==\n")
	fmt.Fprintf(stdout, "  %dx%d at full resolution in %.2fs: %d of %d blocks, mean elevation %.0f m\n",
		res.Grid.W, res.Grid.H, time.Since(start).Seconds(),
		res.Stats.BlocksRead, ds.Meta.NumBlocks(), st.Mean)
	if res.Grid.Geo != nil {
		lon, lat := res.Grid.Geo.PixelToGeo(0, 0)
		fmt.Fprintf(stdout, "  window NW corner: %.2f°E %.2f°N\n", lon, lat)
	}

	// 3. Revisit: the cache absorbs the WAN.
	start = time.Now()
	if _, err := engine.Read(context.Background(), query.Request{Field: "elevation", Box: rockies, Level: query.LevelFull}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n== revisit the same window ==\n  served from cache in %v (hit rate %.2f)\n",
		time.Since(start).Round(time.Microsecond), engine.CacheStats().HitRate())

	net := remoteStore.Stats()
	fmt.Fprintf(stdout, "\nWAN totals: %d operations, %.1f MiB down, %.1fs simulated network time\n",
		net.Ops, float64(net.BytesDownloaded)/(1<<20), net.TotalWait.Seconds())
	return nil
}
