package core

import (
	"bytes"
	"context"
	"fmt"

	"nsdfgo/internal/catalog"
	"nsdfgo/internal/convert"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/netcdf"
	"nsdfgo/internal/query"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/somospie"
	"nsdfgo/internal/storage"
)

// MoistureConfig parameterises the SOMOSPIE workflow: the Earth-science
// application the tutorial's intro motivates ("SOMOSPIE accesses,
// handles, and analyzes raw data ... into terrain and soil moisture data
// for precision agriculture, wildfire prevention, and hydrological
// ecosystems").
type MoistureConfig struct {
	// Width and Height are the region dimensions; zero defaults to 192x128.
	Width, Height int
	// Seed fixes the synthetic data.
	Seed uint64
	// Observations is the sparse station count; zero defaults to 1200.
	Observations int
	// TestFraction is the held-out share; zero defaults to 0.25.
	TestFraction float64
	// DatasetName names the published IDX product; empty defaults to
	// "soil_moisture".
	DatasetName string
}

func (c MoistureConfig) withDefaults() (MoistureConfig, error) {
	if c.Width == 0 {
		c.Width = 192
	}
	if c.Height == 0 {
		c.Height = 128
	}
	if c.Width < 16 || c.Height < 16 {
		return c, fmt.Errorf("core: moisture region %dx%d too small", c.Width, c.Height)
	}
	if c.Observations == 0 {
		c.Observations = 1200
	}
	if c.Observations < 50 {
		return c, fmt.Errorf("core: %d observations; need at least 50", c.Observations)
	}
	if c.Observations > c.Width*c.Height/2 {
		return c, fmt.Errorf("core: %d observations oversample the %dx%d region", c.Observations, c.Width, c.Height)
	}
	if c.TestFraction == 0 {
		c.TestFraction = 0.25
	}
	if c.TestFraction <= 0 || c.TestFraction >= 1 {
		return c, fmt.Errorf("core: test fraction %g outside (0,1)", c.TestFraction)
	}
	if c.DatasetName == "" {
		c.DatasetName = "soil_moisture"
	}
	return c, nil
}

// Blackboard keys published by the moisture workflow (in addition to the
// tutorial keys it shares: KeyDOI, KeyDataset, KeyEngine).
const (
	// KeyEvaluations holds []somospie.EvalReport for every model.
	KeyEvaluations = "evaluations"
	// KeyBestModel holds the winning model's name.
	KeyBestModel = "best_model"
	// KeyPrediction holds the *raster.Grid gridded product.
	KeyPrediction = "prediction"
	// KeyTruth holds the *raster.Grid synthetic ground truth.
	KeyTruth = "truth"
)

// MoistureWorkflow builds the SOMOSPIE pipeline on this fabric:
//
//	terrain    — GEOtiled covariates from a synthetic DEM
//	observe    — synthetic satellite truth + sparse station draw,
//	             published to Dataverse as NetCDF
//	train      — fit kNN/IDW/OLS, evaluate on held-out stations
//	downscale  — gridded prediction with the winner
//	publish    — prediction + truth as a 2-field IDX dataset on private
//	             storage, catalogued and served by a query engine
func (f *Fabric) MoistureWorkflow(cfg MoistureConfig) (*Workflow, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	w := NewWorkflow()
	w.Add(Step{Name: "terrain", Run: func(ctx context.Context, bb *Blackboard) error {
		elev := dem.Scale(dem.FBM(cfg.Width, cfg.Height, cfg.Seed, dem.DefaultFBM()), 100, 1800)
		slope, err := geotiled.ComputeTiled(elev, geotiled.Slope, geotiled.Options{})
		if err != nil {
			return err
		}
		aspect, err := geotiled.ComputeTiled(elev, geotiled.Aspect, geotiled.Options{})
		if err != nil {
			return err
		}
		bb.Put(KeyGrids, map[string]*raster.Grid{"elevation": elev, "slope": slope, "aspect": aspect})
		return nil
	}})
	w.Add(Step{Name: "observe", Needs: []string{"terrain"}, Run: func(ctx context.Context, bb *Blackboard) error {
		return f.moistureObserve(ctx, cfg, bb)
	}})
	w.Add(Step{Name: "train", Needs: []string{"observe"}, Run: func(ctx context.Context, bb *Blackboard) error {
		return f.moistureTrain(ctx, cfg, bb)
	}})
	w.Add(Step{Name: "downscale", Needs: []string{"train"}, Run: func(ctx context.Context, bb *Blackboard) error {
		return f.moistureDownscale(ctx, cfg, bb)
	}})
	w.Add(Step{Name: "publish", Needs: []string{"downscale"}, Run: func(ctx context.Context, bb *Blackboard) error {
		return f.moisturePublish(ctx, cfg, bb)
	}})
	return w, nil
}

// covariateList extracts the covariate grids in a stable order.
func covariateList(grids map[string]*raster.Grid) []*raster.Grid {
	return []*raster.Grid{grids["elevation"], grids["slope"], grids["aspect"]}
}

func (f *Fabric) moistureObserve(ctx context.Context, cfg MoistureConfig, bb *Blackboard) error {
	grids, err := Fetch[map[string]*raster.Grid](bb, KeyGrids)
	if err != nil {
		return err
	}
	truth, err := somospie.SyntheticTruth(grids["elevation"], grids["slope"], grids["aspect"], cfg.Seed)
	if err != nil {
		return err
	}
	bb.Put(KeyTruth, truth)
	samples, err := somospie.DrawSamples(truth, covariateList(grids), cfg.Observations, cfg.Seed)
	if err != nil {
		return err
	}
	bb.Put("samples", samples)

	// Publish the observation product to the public repository as NetCDF,
	// the container such satellite products actually ship in.
	nc, err := netcdf.FromGrid("soil_moisture", truth, "m3 m-3")
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := nc.Encode(&buf); err != nil {
		return err
	}
	doi, err := f.Dataverse.CreateDataset(storage.DatasetMeta{
		Title:       "Synthetic satellite soil moisture (SOMOSPIE reproduction)",
		Authors:     []string{"NSDF Moisture Workflow"},
		Description: "Gap-filled satellite-style soil moisture used as SOMOSPIE training truth",
		Subject:     "Earth and Environmental Sciences",
	})
	if err != nil {
		return err
	}
	if err := f.Dataverse.AddFile(ctx, doi, "soil_moisture.nc", buf.Bytes()); err != nil {
		return err
	}
	if _, err := f.Dataverse.Publish(ctx, doi); err != nil {
		return err
	}
	bb.Put(KeyDOI, doi)
	_, err = f.Catalog.Add(catalog.Record{
		Name: "soil_moisture.nc", Source: "dataverse", Type: "netcdf",
		Size: int64(buf.Len()), Location: doi + "/soil_moisture.nc",
		Keywords: []string{"soil", "moisture", "satellite"},
	})
	return err
}

func (f *Fabric) moistureTrain(ctx context.Context, cfg MoistureConfig, bb *Blackboard) error {
	samples, err := Fetch[[]somospie.Sample](bb, "samples")
	if err != nil {
		return err
	}
	train, test, err := somospie.Split(samples, cfg.TestFraction, cfg.Seed)
	if err != nil {
		return err
	}
	models := []somospie.Model{&somospie.KNN{K: 5}, &somospie.IDW{Power: 2}, &somospie.Linear{}}
	var reports []somospie.EvalReport
	var best somospie.Model
	bestRMSE := 0.0
	for _, m := range models {
		if err := m.Fit(train); err != nil {
			return fmt.Errorf("fit %s: %w", m.Name(), err)
		}
		rep, err := somospie.Evaluate(m, test)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
		if best == nil || rep.RMSE < bestRMSE {
			best, bestRMSE = m, rep.RMSE
		}
	}
	bb.Put(KeyEvaluations, reports)
	bb.Put(KeyBestModel, best.Name())
	bb.Put("model", best)
	return nil
}

func (f *Fabric) moistureDownscale(ctx context.Context, cfg MoistureConfig, bb *Blackboard) error {
	grids, err := Fetch[map[string]*raster.Grid](bb, KeyGrids)
	if err != nil {
		return err
	}
	model, err := Fetch[somospie.Model](bb, "model")
	if err != nil {
		return err
	}
	pred, err := somospie.PredictGrid(model, covariateList(grids))
	if err != nil {
		return err
	}
	bb.Put(KeyPrediction, pred)
	return nil
}

func (f *Fabric) moisturePublish(ctx context.Context, cfg MoistureConfig, bb *Blackboard) error {
	pred, err := Fetch[*raster.Grid](bb, KeyPrediction)
	if err != nil {
		return err
	}
	truth, err := Fetch[*raster.Grid](bb, KeyTruth)
	if err != nil {
		return err
	}
	be := storage.NewIDXBackend(f.Private, "datasets/"+cfg.DatasetName)
	ds, err := convert.ToIDXWith(ctx, be, []convert.Input{
		{FieldName: "soil_moisture_pred", Grid: pred},
		{FieldName: "soil_moisture_truth", Grid: truth},
	}, convert.IDXOptions{})
	if err != nil {
		return err
	}
	size, err := ds.StoredBytes(ctx, "soil_moisture_pred", 0)
	if err != nil {
		return err
	}
	if _, err := f.Catalog.Add(catalog.Record{
		Name: cfg.DatasetName + ".idx", Source: "sealstorage", Type: "idx",
		Size: size, Location: "datasets/" + cfg.DatasetName,
		Keywords: []string{"soil", "moisture", "downscaled", "somospie"},
	}); err != nil {
		return err
	}
	bb.Put(KeyDataset, ds)
	bb.Put(KeyEngine, query.New(ds, f.CacheBytes))
	return nil
}
