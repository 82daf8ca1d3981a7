// Climate playback: the dashboard's time dimension.
//
// The paper's dashboard walkthrough highlights "the playback
// functionality allows for automated data walkthroughs, offering a
// comprehensive view of climate evolution" with a time slider and speed
// control. This example builds a 12-step synthetic soil-moisture series
// (seasonal cycle + weather noise over terrain), stores every step as a
// timestep of one IDX dataset, and then replays it the way the dashboard
// does: fetching each frame at a preview resolution, printing a
// state-of-the-field summary per month, and measuring how the block cache
// turns a second playback pass nearly free.
//
// Run with:
//
//	go run ./examples/climate_playback
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"nsdfgo/internal/dem"
	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/netmon"
	"nsdfgo/internal/query"
	"nsdfgo/internal/somospie"
	"nsdfgo/internal/storage"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run walks through the example, writing what it shows to stdout.
func run(stdout io.Writer) error {
	const w, h = 256, 128
	const months = 12
	const seed = 20240624

	// A moisture climatology over synthetic terrain, evolved monthly.
	fmt.Fprintln(stdout, "building 12-month synthetic soil-moisture series...")
	elevation := dem.Scale(dem.FBM(w, h, seed, dem.DefaultFBM()), 100, 1500)
	slope, err := geotiled.ComputeTiled(elevation, geotiled.Slope, geotiled.Options{})
	if err != nil {
		return err
	}
	aspect, err := geotiled.ComputeTiled(elevation, geotiled.Aspect, geotiled.Options{})
	if err != nil {
		return err
	}
	base, err := somospie.SyntheticTruth(elevation, slope, aspect, seed)
	if err != nil {
		return err
	}
	series := dem.TimeSeries(base, seed, dem.SeriesOptions{
		Steps: months, SeasonalAmp: 0.18, NoiseAmp: 0.04, Period: months,
	})

	// Store the whole year as one multiresolution dataset on a simulated
	// regional object store: the testbed's sdsc->utah link.
	meta, err := idx.NewMeta([]int{w, h}, []idx.Field{{Name: "soil_moisture", Type: idx.Float32}})
	if err != nil {
		return err
	}
	meta.Timesteps = months
	meta.BitsPerBlock = 12
	testbed, err := netmon.NewNetwork(netmon.Testbed(), seed)
	if err != nil {
		return err
	}
	link, err := testbed.Profile("sdsc", "utah")
	if err != nil {
		return err
	}
	remote := storage.NewConditioned(storage.NewMemStore(), link, seed)
	ds, err := idx.Create(context.Background(), storage.NewIDXBackend(remote, "moisture_2016"), meta)
	if err != nil {
		return err
	}
	for t, g := range series {
		if err := ds.WriteGrid(context.Background(), "soil_moisture", t, g); err != nil {
			return err
		}
	}
	engine := query.New(ds, 64<<20)
	engine.SetFetchParallelism(8)

	// Playback pass 1: cold, over the wire.
	monthNames := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	playback := func(label string) (time.Duration, error) {
		start := time.Now()
		fmt.Fprintf(stdout, "\n== playback (%s): monthly mean moisture, preview level ==\n", label)
		for t := 0; t < months; t++ {
			res, err := engine.Read(context.Background(), query.Request{Field: "soil_moisture", Time: t, Level: 10})
			if err != nil {
				return 0, err
			}
			st := res.Grid.ComputeStats()
			bar := strings.Repeat("#", int(st.Mean*120))
			fmt.Fprintf(stdout, "  %s  mean %.3f  %s\n", monthNames[t], st.Mean, bar)
		}
		return time.Since(start), nil
	}
	cold, err := playback("cold cache")
	if err != nil {
		return err
	}
	warm, err := playback("warm cache")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nplayback timing: cold %.1fms, warm %.1fms (%.0fx)\n",
		float64(cold)/1e6, float64(warm)/1e6, float64(cold)/float64(warm))

	// Seasonal verdict: wettest and driest months must be half a year apart.
	wettest, driest := 0, 0
	var wetMean, dryMean float64 = -1, 2
	for t := 0; t < months; t++ {
		res, err := engine.Read(context.Background(), query.Request{Field: "soil_moisture", Time: t, Level: 10})
		if err != nil {
			return err
		}
		m := res.Grid.ComputeStats().Mean
		if m > wetMean {
			wetMean, wettest = m, t
		}
		if m < dryMean {
			dryMean, driest = m, t
		}
	}
	fmt.Fprintf(stdout, "wettest month %s (%.3f), driest %s (%.3f)\n",
		monthNames[wettest], wetMean, monthNames[driest], dryMean)
	return nil
}
