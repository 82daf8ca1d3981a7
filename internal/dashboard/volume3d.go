package dashboard

import (
	"fmt"
	"net/http"
	"strconv"

	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/raster"
)

// The dashboard serves 3D datasets by slicing: every 2D endpoint
// (render, data, stats, export) accepts a `z` query parameter selecting
// the XY plane. 2D datasets ignore `z`.

// readRegion evaluates a request against a 2D or 3D dataset, returning a
// 2D grid either way. For 3D datasets the request's box is interpreted in
// the XY plane of slice z (clamped to the dataset depth and aligned to
// the level's Z lattice). The HTTP request's context bounds all block
// I/O: when the client disconnects, in-flight fetches abort.
func (s *Server) readRegion(e *query.Engine, req query.Request, r *http.Request) (*raster.Grid, query.Result, error) {
	ds := e.Dataset()
	if len(ds.Meta.Dims) == 2 {
		res, err := e.Read(r.Context(), req)
		if err != nil {
			return nil, query.Result{}, err
		}
		return res.Grid, res, nil
	}
	// 3D: slice at z.
	z := 0
	if zs := r.URL.Query().Get("z"); zs != "" {
		v, err := strconv.Atoi(zs)
		if err != nil {
			return nil, query.Result{}, fmt.Errorf("dashboard: bad z=%q", zs)
		}
		z = v
	}
	depth := ds.Meta.Dims[2]
	if z < 0 || z >= depth {
		return nil, query.Result{}, fmt.Errorf("dashboard: slice z=%d outside [0,%d)", z, depth)
	}
	level := req.Level
	switch level {
	case query.LevelFull, query.LevelAuto:
		level = ds.Meta.MaxLevel()
	}
	if level < 0 || level > ds.Meta.MaxLevel() {
		return nil, query.Result{}, fmt.Errorf("dashboard: level %d outside [0,%d]", level, ds.Meta.MaxLevel())
	}
	// Align z down to the level's Z lattice so the slice is non-empty.
	strides := ds.Meta.Bits.LevelStrides(level)
	za := z / strides[2] * strides[2]
	box := idx.Box3{
		X0: req.Box.X0, Y0: req.Box.Y0, Z0: za,
		X1: req.Box.X1, Y1: req.Box.Y1, Z1: za + 1,
	}
	if box.X1 == 0 && box.Y1 == 0 { // zero box means full XY extent
		box.X1, box.Y1 = ds.Meta.Dims[0], ds.Meta.Dims[1]
	}
	vol, stats, err := ds.ReadBox3D(r.Context(), req.Field, req.Time, ds.Clip3(box), level)
	if err != nil {
		return nil, query.Result{}, err
	}
	g := &raster.Grid{W: vol.Dims[0], H: vol.Dims[1], Data: vol.Data}
	res := query.Result{Level: level, Grid: g, Stats: *stats,
		TransferBytes: int64(stats.Samples) * 4}
	return g, res, nil
}
