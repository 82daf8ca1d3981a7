package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"nsdfgo/internal/hz"
	"nsdfgo/internal/idx"
)

// workload names are stable identifiers: BENCHMARK.json, result files
// and every later performance claim refer to them.
const (
	cohortWarm    = "cohort_warm"
	exploreCold   = "explore_cold"
	renderPreview = "render_preview"
	ingestConvert = "ingest_convert"
)

var workloadNames = []string{cohortWarm, exploreCold, renderPreview, ingestConvert}

// request is one dashboard call of a progressive stream.
type request struct {
	Render  bool // /api/render (PNG) instead of /api/data (NPY)
	Field   string
	T       int
	Box     idx.Box
	Level   int
	Palette string
	path    string // URL path and query, built once
}

// stream is what one participant does before looking at the result:
// the same region coarse to fine. A client sends the next request of a
// stream only after the previous response has arrived.
type stream []request

// palettes rotate over render requests.
var palettes = []string{"viridis", "terrain", "plasma"}

// genStreams derives a workload's request list from the seed alone.
// The list is built in rounds of fixed composition (shuffled inside the
// round), so every seed and every prefix has the same mix of request
// kinds and only positions, fields and timesteps vary.
func genStreams(workload string, sz sizes, seed uint64, n int) ([]stream, error) {
	h := fnv.New64a()
	h.Write([]byte(workload))
	rng := rand.New(rand.NewSource(int64(seed ^ h.Sum64())))
	mask, err := hz.Guess([]int{sz.Dim, sz.Dim})
	if err != nil {
		return nil, err
	}
	maxLevel := mask.Bits()
	full := idx.Box{X1: sz.Dim, Y1: sz.Dim}
	zoom := func() idx.Box {
		x0, y0 := rng.Intn(sz.Dim-sz.Zoom+1), rng.Intn(sz.Dim-sz.Zoom+1)
		return idx.Box{X0: x0, Y0: y0, X1: x0 + sz.Zoom, Y1: y0 + sz.Zoom}
	}
	// Field/timestep pairs ranked by popularity for the zipf draw: the
	// cohort mostly looks at what the instructor is showing.
	pairs := len(fieldNames) * sz.Timesteps
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(pairs-1))
	pair := func(i int) (string, int) { return fieldNames[i%len(fieldNames)], i / len(fieldNames) }

	levels := func(box idx.Box, field string, t int, ls ...int) stream {
		st := make(stream, len(ls))
		for i, l := range ls {
			st[i] = request{Field: field, T: t, Box: box, Level: max(l, 0)}
		}
		return st
	}
	var out []stream
	renders := 0
	for len(out) < n {
		var round []stream
		switch workload {
		case cohortWarm:
			// 60% full-extent previews, 40% zooms.
			for i := 0; i < 5; i++ {
				f, t := pair(int(zipf.Uint64()))
				if i < 3 {
					round = append(round, levels(full, f, t, maxLevel-6, maxLevel-4, maxLevel-2))
				} else {
					round = append(round, levels(zoom(), f, t, maxLevel-4, maxLevel-2, maxLevel))
				}
			}
		case exploreCold:
			// A jump to a new place, refined to full resolution in three
			// steps (three, so that the median request is the middle
			// one and not the gap between a cheap and a dear one). There
			// is no full-extent preview first: it reads a single block,
			// which the small cache holds in about half the runs and
			// not in the others, so its median latency was either a
			// hit's or a miss's and spread by 10 to 33% between
			// identical runs. Every request here reads fine blocks that
			// are almost never cached.
			f, t := pair(rng.Intn(pairs))
			round = append(round, levels(zoom(), f, t, maxLevel-2, maxLevel-1, maxLevel))
		case renderPreview:
			// 128², 256² and 512² images of the full extent.
			f, t := pair(int(zipf.Uint64()))
			st := levels(full, f, t, maxLevel-8, maxLevel-6, maxLevel-4)
			for i := range st {
				st[i].Render, st[i].Palette = true, palettes[renders%len(palettes)]
			}
			renders++
			round = append(round, st)
		default:
			return nil, fmt.Errorf("workload %q has no request list", workload)
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		out = append(out, round...)
	}
	out = out[:n]
	for _, st := range out {
		for i := range st {
			st[i].path = st[i].url()
		}
	}
	return out, nil
}

func (r *request) url() string {
	endpoint := "/api/data"
	if r.Render {
		endpoint = "/api/render"
	}
	u := fmt.Sprintf("%s?dataset=%s&field=%s&t=%d&x0=%d&y0=%d&x1=%d&y1=%d&level=%d",
		endpoint, datasetName, r.Field, r.T, r.Box.X0, r.Box.Y0, r.Box.X1, r.Box.Y1, r.Level)
	if r.Render {
		u += "&palette=" + r.Palette
	}
	return u
}

// cacheBytes is the dashboard's block-cache budget on a workload.
func cacheBytes(workload string, sz sizes) int64 {
	if workload == exploreCold {
		return sz.ColdCacheBytes
	}
	return sz.WarmCacheBytes
}
