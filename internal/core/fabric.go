package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"nsdfgo/internal/catalog"
	"nsdfgo/internal/convert"
	"nsdfgo/internal/dashboard"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/metrics"
	"nsdfgo/internal/query"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/tiff"
)

// Fabric bundles the NSDF services a workflow draws on: a public
// repository (Dataverse), a private object store (Seal Storage), the
// record catalog, and the dashboard's cache budget. Any field can be
// swapped for a remote-backed implementation (HTTP client, conditioned
// store) without touching workflow code — that substitution is exactly
// the modularity the tutorial teaches.
type Fabric struct {
	// PublicStore backs the Dataverse repository.
	PublicStore storage.Store
	// Dataverse is the public publication service (step 1 uploads).
	Dataverse *storage.Dataverse
	// Private is the Seal-Storage-style store holding IDX data (step 2).
	Private storage.Store
	// Catalog indexes every artifact the workflow produces.
	Catalog *catalog.Catalog
	// CacheBytes budgets the block cache of step 4's query engine.
	CacheBytes int64
}

// NewFabric assembles an all-in-memory fabric with a 64 MiB cache —
// the configuration the tutorial's local exercises use.
func NewFabric() *Fabric {
	public := storage.NewMemStore()
	return &Fabric{
		PublicStore: public,
		Dataverse:   storage.NewDataverse(public),
		Private:     storage.NewMemStore(),
		Catalog:     catalog.New(),
		CacheBytes:  64 << 20,
	}
}

// TutorialConfig parameterises the four-step tutorial workflow.
type TutorialConfig struct {
	// Region selects the scene: "tennessee" (default) or "conus".
	Region string
	// Width and Height are the synthesised DEM dimensions; zero defaults
	// to 512 x 256.
	Width, Height int
	// Seed fixes the synthetic data.
	Seed uint64
	// DatasetName names the IDX dataset on private storage; zero defaults
	// to "<region>_30m".
	DatasetName string
	// Params lists the terrain parameters to generate; nil means all four.
	Params []geotiled.Param
	// TileSize and Workers tune GEOtiled; zeros use its defaults.
	TileSize, Workers int
}

func (c TutorialConfig) withDefaults() (TutorialConfig, error) {
	if c.Region == "" {
		c.Region = "tennessee"
	}
	if _, err := dem.Region(c.Region); err != nil {
		return c, err
	}
	if c.Width == 0 {
		c.Width = 512
	}
	if c.Height == 0 {
		c.Height = 256
	}
	if c.Width < 8 || c.Height < 8 {
		return c, fmt.Errorf("core: scene %dx%d too small", c.Width, c.Height)
	}
	if c.DatasetName == "" {
		c.DatasetName = c.Region + "_30m"
	}
	if len(c.Params) == 0 {
		c.Params = geotiled.TutorialParams
	}
	return c, nil
}

// capitalize upper-cases the first ASCII letter of s.
func capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// Blackboard keys published by the tutorial workflow.
const (
	// KeyGrids holds map[string]*raster.Grid of generated parameters.
	KeyGrids = "grids"
	// KeyDOI holds the Dataverse persistent ID of the published TIFFs.
	KeyDOI = "doi"
	// KeyTIFFBytes holds map[string]int64 of encoded TIFF sizes.
	KeyTIFFBytes = "tiff_bytes"
	// KeyDataset holds the *idx.Dataset on private storage.
	KeyDataset = "dataset"
	// KeyIDXBytes holds map[string]int64 of stored IDX block sizes.
	KeyIDXBytes = "idx_bytes"
	// KeyValidation holds map[string]metrics.Report from step 3.
	KeyValidation = "validation"
	// KeyEngine holds the *query.Engine of step 4.
	KeyEngine = "engine"
	// KeyDashboard holds the *dashboard.Server of step 4.
	KeyDashboard = "dashboard"
	// KeySnip holds the step-4 demonstration snip as .npy bytes.
	KeySnip = "snip_npy"
)

// TutorialWorkflow builds the four-step workflow of Fig. 4 over this
// fabric. Run it with Workflow.Run; artifacts land on the blackboard
// under the Key* constants.
func (f *Fabric) TutorialWorkflow(cfg TutorialConfig) (*Workflow, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	w := NewWorkflow()
	w.Add(Step{Name: "generate", Run: func(ctx context.Context, bb *Blackboard) error {
		return f.stepGenerate(ctx, cfg, bb)
	}})
	w.Add(Step{Name: "convert", Needs: []string{"generate"}, Run: func(ctx context.Context, bb *Blackboard) error {
		return f.stepConvert(ctx, cfg, bb)
	}})
	w.Add(Step{Name: "validate", Needs: []string{"convert"}, Run: func(ctx context.Context, bb *Blackboard) error {
		return f.stepValidate(ctx, cfg, bb)
	}})
	w.Add(Step{Name: "visualize", Needs: []string{"validate"}, Run: func(ctx context.Context, bb *Blackboard) error {
		return f.stepVisualize(ctx, cfg, bb)
	}})
	return w, nil
}

// stepGenerate is tutorial step 1: synthesise the DEM (standing in for
// the USGS download), run GEOtiled, publish the TIFFs to Dataverse, and
// catalogue them.
func (f *Fabric) stepGenerate(ctx context.Context, cfg TutorialConfig, bb *Blackboard) error {
	scene, err := dem.Region(cfg.Region)
	if err != nil {
		return err
	}
	demGrid := scene(cfg.Width, cfg.Height, cfg.Seed)
	opts := geotiled.Options{TileSize: cfg.TileSize, Workers: cfg.Workers}
	grids := make(map[string]*raster.Grid, len(cfg.Params))
	for _, p := range cfg.Params {
		g, err := geotiled.ComputeTiled(demGrid, p, opts)
		if err != nil {
			return fmt.Errorf("geotiled %s: %w", p, err)
		}
		grids[p.String()] = g
	}
	bb.Put(KeyGrids, grids)

	doi, err := f.Dataverse.CreateDataset(storage.DatasetMeta{
		Title:       fmt.Sprintf("%s terrain parameters (30 m, synthetic reproduction)", capitalize(cfg.Region)),
		Authors:     []string{"NSDF Tutorial Workflow"},
		Description: "GEOtiled-derived terrain parameters generated by the four-step NSDF tutorial workflow",
		Subject:     "Earth and Environmental Sciences",
	})
	if err != nil {
		return err
	}
	tiffBytes := make(map[string]int64, len(grids))
	for _, p := range cfg.Params {
		name := p.String()
		var buf bytes.Buffer
		if err := tiff.Encode(&buf, tiff.FromGrid(grids[name]), tiff.EncodeOptions{Compression: tiff.CompressionDeflate}); err != nil {
			return fmt.Errorf("encode %s.tif: %w", name, err)
		}
		fileName := name + ".tif"
		if err := f.Dataverse.AddFile(ctx, doi, fileName, buf.Bytes()); err != nil {
			return err
		}
		tiffBytes[name] = int64(buf.Len())
		if _, err := f.Catalog.Add(catalog.Record{
			Name: fmt.Sprintf("%s_%s.tif", cfg.Region, name), Source: "dataverse", Type: "tiff",
			Size: int64(buf.Len()), Location: doi + "/" + fileName,
			Keywords: []string{"terrain", name, cfg.Region},
		}); err != nil {
			return err
		}
	}
	if _, err := f.Dataverse.Publish(ctx, doi); err != nil {
		return err
	}
	bb.Put(KeyDOI, doi)
	bb.Put(KeyTIFFBytes, tiffBytes)
	return nil
}

// stepConvert is tutorial step 2: pull the published TIFFs back from
// Dataverse, convert them to one multi-field IDX dataset on the private
// store, and catalogue the result.
func (f *Fabric) stepConvert(ctx context.Context, cfg TutorialConfig, bb *Blackboard) error {
	doi, err := Fetch[string](bb, KeyDOI)
	if err != nil {
		return err
	}
	// Pull every published TIFF back from the repository first: the
	// conversion consumes the public artifacts, not in-memory state.
	inputs := make([]convert.Input, 0, len(cfg.Params))
	for _, p := range cfg.Params {
		name := p.String()
		data, err := f.Dataverse.GetFile(ctx, doi, 0, name+".tif")
		if err != nil {
			return fmt.Errorf("fetch %s.tif: %w", name, err)
		}
		im, err := tiff.DecodeBytes(data)
		if err != nil {
			return fmt.Errorf("decode %s.tif: %w", name, err)
		}
		inputs = append(inputs, convert.Input{FieldName: name, Grid: im.Grid()})
	}
	be := storage.NewIDXBackend(f.Private, "datasets/"+cfg.DatasetName)
	ds, err := convert.ToIDXWith(ctx, be, inputs, convert.IDXOptions{})
	if err != nil {
		return err
	}
	idxBytes := make(map[string]int64, len(cfg.Params))
	for _, in := range inputs {
		n, err := ds.StoredBytes(ctx, in.FieldName, 0)
		if err != nil {
			return err
		}
		idxBytes[in.FieldName] = n
		if _, err := f.Catalog.Add(catalog.Record{
			Name: fmt.Sprintf("%s_%s.idx", cfg.Region, in.FieldName), Source: "sealstorage", Type: "idx",
			Size: n, Location: "datasets/" + cfg.DatasetName,
			Keywords: []string{"terrain", in.FieldName, cfg.Region, "multiresolution"},
		}); err != nil {
			return err
		}
	}
	bb.Put(KeyDataset, ds)
	bb.Put(KeyIDXBytes, idxBytes)
	return nil
}

// stepValidate is tutorial step 3: statically compare the IDX round trip
// against the original grids with scientific metrics; the lossless zlib
// path must be bit-for-bit identical.
func (f *Fabric) stepValidate(ctx context.Context, cfg TutorialConfig, bb *Blackboard) error {
	grids, err := Fetch[map[string]*raster.Grid](bb, KeyGrids)
	if err != nil {
		return err
	}
	ds, err := Fetch[*idx.Dataset](bb, KeyDataset)
	if err != nil {
		return err
	}
	reports := make(map[string]metrics.Report, len(cfg.Params))
	for _, p := range cfg.Params {
		name := p.String()
		got, _, err := ds.ReadFull(ctx, name, 0)
		if err != nil {
			return fmt.Errorf("read back %s: %w", name, err)
		}
		orig := grids[name]
		rep, err := metrics.Compare(orig.Data, got.Data, orig.W, orig.H)
		if err != nil {
			return err
		}
		if !rep.Identical {
			return fmt.Errorf("validation failed for %s: %s", name, rep)
		}
		reports[name] = rep
	}
	bb.Put(KeyValidation, reports)
	return nil
}

// stepVisualize is tutorial step 4: stand up the query engine and
// dashboard, exercise a progressive zoom, and produce a snip download.
func (f *Fabric) stepVisualize(ctx context.Context, cfg TutorialConfig, bb *Blackboard) error {
	ds, err := Fetch[*idx.Dataset](bb, KeyDataset)
	if err != nil {
		return err
	}
	engine := query.New(ds, f.CacheBytes)
	server := dashboard.NewServer()
	server.Register(cfg.DatasetName, engine)

	// Progressive preview of the full extent, coarse to fine.
	firstParam := cfg.Params[0].String()
	steps := 0
	err = engine.Progressive(ctx, query.Request{Field: firstParam, Level: query.LevelFull}, 4, 4, func(res query.Result) error {
		steps++
		return nil
	})
	if err != nil {
		return fmt.Errorf("progressive preview: %w", err)
	}
	if steps == 0 {
		return fmt.Errorf("progressive preview delivered nothing")
	}

	// Snip a central subregion and package it as the NumPy download.
	box := idx.Box{X0: cfg.Width / 4, Y0: cfg.Height / 4, X1: cfg.Width * 3 / 4, Y1: cfg.Height * 3 / 4}
	res, err := engine.Read(ctx, query.Request{Field: firstParam, Box: box, Level: query.LevelFull})
	if err != nil {
		return fmt.Errorf("snip: %w", err)
	}
	npy, err := dashboard.EncodeNPY(res.Grid)
	if err != nil {
		return err
	}
	bb.Put(KeyEngine, engine)
	bb.Put(KeyDashboard, server)
	bb.Put(KeySnip, npy)
	return nil
}
