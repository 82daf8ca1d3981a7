package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nsdfgo/internal/convert"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/telemetry/trace"
)

const (
	// ingestRing is the number of key prefixes each client writes in
	// turn: converting onto a prefix that already holds a dataset runs
	// idx.Create's purge of stale blocks, and keeps disk use bounded.
	ingestRing = 4
	// ingestCacheBytes is the read-back engine's cache, nsdf-dashboard's
	// default -cache-mb.
	ingestCacheBytes = 64 << 20
	ingestField      = "elevation"
)

// rastersPerClient spaces the clients' starting rasters so that the
// warm-up, one lap per client, converts every raster exactly once. The
// seed only rotates which raster comes first.
func (h *harness) rastersPerClient() int {
	return (len(h.in.rasters) + clientCount() - 1) / clientCount()
}

func (h *harness) rasterBytes() int64 {
	return int64(h.in.sz.RasterDim) * int64(h.in.sz.RasterDim) * 4
}

// ingestOp is the tutorial's generate -> convert -> validate steps for
// one raster: decode the uploaded TIFF, convert it to IDX on the
// sharded tier, open what was stored through a fresh engine, look at a
// coarse preview, then read it back in full and compare bit for bit
// with the source.
func (h *harness) ingestOp(ctx context.Context, p *phase, client, k int, measureStored bool) {
	in := &h.in.rasters[(int(h.opt.Seed%uint64(len(h.in.rasters)))+client*h.rastersPerClient()+k)%len(h.in.rasters)]
	prefix := fmt.Sprintf("ingest/c%d/r%d", client, k%ingestRing)
	n := uint64(client)<<24 | uint64(k+1)
	var o openSpan
	if h.rec != nil {
		// A repository trace makes storage.Client forward the request
		// number to the store nodes, as it does for dashboard requests.
		root := h.st.traces.StartTrace(requestID(n), "ingest")
		defer root.End()
		ctx = trace.NewContext(ctx, root)
		o = h.rec.begin(ctx, "loadgen.ingest")
		o.set(func(s *span) { s.Req = n })
		ctx = withSpan(ctx, o)
	}
	// step runs one stage of the op under its own span.
	step := func(name string, n int64, fn func(ctx context.Context) error) error {
		so := h.rec.begin(ctx, name)
		err := fn(withSpan(ctx, so))
		so.end(n)
		return err
	}
	start := time.Now()
	var preview, toidx, load time.Duration
	err := func() error {
		var g *raster.Grid
		err := step("convert.load", int64(len(in.tiff)), func(context.Context) (err error) {
			g, err = convert.LoadRaster(in.name, in.tiff, convert.Options{})
			return err
		})
		load = time.Since(start)
		if err != nil {
			return err
		}
		be := h.st.backend(prefix)
		err = step("idx.write", h.rasterBytes(), func(ctx context.Context) error {
			_, err := convert.ToIDXWith(ctx, be, []convert.Input{{FieldName: ingestField, Grid: g}},
				convert.IDXOptions{Codec: h.st.codecName()})
			return err
		})
		toidx = time.Since(start) - load
		if err != nil {
			return err
		}
		if measureStored {
			n, err := storedUnder(ctx, h.st.store, prefix+"/"+idx.BlockPrefix)
			if err != nil {
				return err
			}
			atomic.AddInt64(&h.rasterStored, n)
		}
		var eng *query.Engine
		err = step("idx.open", 0, func(ctx context.Context) (err error) {
			eng, _, err = h.st.engineOn(ctx, be, ingestCacheBytes)
			return err
		})
		if err != nil {
			return err
		}
		read := func(level int) (res query.Result, err error) {
			err = step("idx.read", 0, func(ctx context.Context) (err error) {
				res, err = eng.Read(ctx, query.Request{Field: ingestField, Level: level})
				return err
			})
			return res, err
		}
		level := max(eng.Dataset().Meta.MaxLevel()-6, 0)
		res, err := read(level)
		if err != nil {
			return err
		}
		if err := latticeOf(eng.Dataset().Meta.Bits, eng.Dataset().FullBox(), level).checkGrid(res.Grid, in.grid); err != nil {
			return fmt.Errorf("preview: %w", err)
		}
		preview = time.Since(start)
		if res, err = read(query.LevelFull); err != nil {
			return err
		}
		return step("loadgen.compare", 0, func(context.Context) error {
			if !raster.Equal(res.Grid, in.grid) {
				return fmt.Errorf("read-back of %s differs from the source raster", in.name)
			}
			return nil
		})
	}()
	lat := time.Since(start)
	o.end(h.rasterBytes())

	if err != nil {
		p.record(op{}, 0, fmt.Errorf("%s -> %s: %w", in.name, prefix, err))
		return
	}
	p.record(op{
		req: n, lat: lat, first: preview, stream: lat, load: load, toidx: toidx,
		write: h.rasterBytes(), writeDur: toidx,
		read: h.rasterBytes(), readDur: lat - load - toidx,
	}, 0, nil)
}

// driveIngest runs the closed-loop ingest clients, each over the ops of
// the window.
func (h *harness) driveIngest(ctx context.Context, win window, measureStored bool) *phase {
	p := &phase{}
	p.measure(func() {
		win := win.begin()
		var wg sync.WaitGroup
		for c := 0; c < clientCount(); c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := win.from; win.open(k); k++ {
					h.ingestOp(ctx, p, c, k, measureStored)
				}
			}(c)
		}
		wg.Wait()
	})
	return p
}

// warmIngest converts every raster once, untimed, and records what one
// replica stores for them: that is stored_ratio's numerator, and it is
// the same on every run because the rasters are.
func (h *harness) warmIngest(ctx context.Context) error {
	p := h.driveIngest(ctx, window{to: h.rastersPerClient()}, true)
	if p.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ingest ops failed: %v", p.failed, p.attempted, p.errs)
	}
	if h.rec != nil {
		h.rec.take()
	}
	return nil
}
