// bench_test.go regenerates every table and figure of the paper as a
// testing.B benchmark (experiment ids follow DESIGN.md §4), plus the
// ablation benches for the design choices DESIGN.md §5 calls out. Run
// with:
//
//	go test -bench=. -benchmem
package nsdfgo_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/compress"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/experiments"
	"nsdfgo/internal/fusefs"
	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/tiff"

	"context"
)

// --- One benchmark per paper artifact -----------------------------------

func BenchmarkTableIAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTableI(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1GoalsSelfTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig1(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2ProbeMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Conversion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig3(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Workflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig4(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5GeotiledSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7DashboardSession(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8SurveyCharts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaimSizeReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunClaim20(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheColdWarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunClaimCache(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaimCloudAcquisition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunClaimCloud(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Supporting micro-benches behind the claims -------------------------

// benchDataset builds a 512x512 elevation dataset once per benchmark.
func benchDataset(b *testing.B, bitsPerBlock int) *idx.Dataset {
	b.Helper()
	meta, err := idx.NewMeta([]int{512, 512}, []idx.Field{{Name: "elevation", Type: idx.Float32}})
	if err != nil {
		b.Fatal(err)
	}
	meta.BitsPerBlock = bitsPerBlock
	ds, err := idx.Create(context.Background(), storage.NewIDXBackend(storage.NewMemStore(), ""), meta)
	if err != nil {
		b.Fatal(err)
	}
	g := dem.Scale(dem.FBM(512, 512, 1, dem.DefaultFBM()), 0, 2500)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkProgressiveLevels measures claim C2: box queries at coarse
// levels cost a fraction of full resolution.
func BenchmarkProgressiveLevels(b *testing.B) {
	ds := benchDataset(b, 12)
	for _, level := range []int{6, 10, 14, 18} {
		b.Run(fmt.Sprintf("level%d", level), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ds.ReadBox(context.Background(), "elevation", 0, ds.FullBox(), level); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCatalogIndex and BenchmarkCatalogSearch cover claim C4; they
// live in internal/catalog's own bench suite and are re-exported here as
// a single representative workload over 100k records.
func BenchmarkCatalogScaleModel(b *testing.B) {
	// Covered in depth by internal/catalog benches; keep the top-level
	// entry point so `-bench=Catalog` at the root measures the C4 shape.
	b.Run("ingest+search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := catalogScaleModelOnce(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func catalogScaleModelOnce() error {
	// A miniature of the 1.59B-record catalog: ingest 20k, run 100 queries.
	cat := newBenchCatalog(20000)
	for q := 0; q < 100; q++ {
		if res := cat.Search(benchQuery(q)); res == nil && q%50 == 0 {
			// Some queries legitimately return nothing.
			continue
		}
	}
	return nil
}

// BenchmarkFuseMappings covers claim C5: mapping package comparison.
func BenchmarkFuseMappings(b *testing.B) {
	ctx := context.Background()
	payloadSmall := make([]byte, 8<<10)
	payloadLarge := make([]byte, 4<<20)
	mappings := map[string]fusefs.Mapping{
		"one-to-one": fusefs.OneToOne{},
		"chunked1M":  fusefs.Chunked{ChunkSize: 1 << 20},
		"compressed": fusefs.Compressed{},
	}
	for name, m := range mappings {
		b.Run(name+"/many-small", func(b *testing.B) {
			store := storage.NewMemStore()
			b.SetBytes(int64(len(payloadSmall)))
			for i := 0; i < b.N; i++ {
				path := fmt.Sprintf("f%d.bin", i%64)
				if err := m.Write(ctx, store, path, payloadSmall); err != nil {
					b.Fatal(err)
				}
				if _, err := m.Read(ctx, store, path); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/few-large", func(b *testing.B) {
			store := storage.NewMemStore()
			b.SetBytes(int64(len(payloadLarge)))
			for i := 0; i < b.N; i++ {
				if err := m.Write(ctx, store, "big.bin", payloadLarge); err != nil {
					b.Fatal(err)
				}
				if _, err := m.Read(ctx, store, "big.bin"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetmonProbe covers claim C6.
func BenchmarkNetmonProbe(b *testing.B) {
	net := newBenchNetwork(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := net.ProbeLatency("sdsc", "mghpcc"); err != nil {
			b.Fatal(err)
		}
		if _, err := net.ProbeThroughput("sdsc", "mghpcc"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) -------------------------------------

// BenchmarkLayoutHZvsRowMajor ablates the HZ block layout: a 64x64 box
// query against the HZ-ordered dataset versus scanning the equivalent
// row-major TIFF (which must decode whole strips covering the rows).
func BenchmarkLayoutHZvsRowMajor(b *testing.B) {
	g := dem.Scale(dem.FBM(512, 512, 1, dem.DefaultFBM()), 0, 2500)
	box := idx.Box{X0: 224, Y0: 224, X1: 288, Y1: 288}

	b.Run("hz-idx", func(b *testing.B) {
		ds := benchDataset(b, 12)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ds.ReadBox(context.Background(), "elevation", 0, box, ds.Meta.MaxLevel()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rowmajor-tiff", func(b *testing.B) {
		var buf bytes.Buffer
		if err := tiff.Encode(&buf, tiff.FromGrid(g), tiff.EncodeOptions{Compression: tiff.CompressionDeflate}); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			im, err := tiff.DecodeBytes(data)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := im.Grid().Crop(box.X0, box.Y0, box.X1-box.X0, box.Y1-box.Y0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGeotiledHaloWidth ablates the halo width (redundant compute vs
// seam correctness is tested elsewhere; here we measure cost).
func BenchmarkGeotiledHaloWidth(b *testing.B) {
	d := dem.Scale(dem.FBM(512, 512, 1, dem.DefaultFBM()), 0, 2500)
	for _, halo := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("halo%d", halo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := geotiled.ComputeTiled(d, geotiled.Slope, geotiled.Options{TileSize: 128, Halo: halo}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCacheSizes ablates the block-cache budget for a pan workload
// revisiting 4 quadrants.
func BenchmarkCacheSizes(b *testing.B) {
	ds := benchDataset(b, 12)
	quadrants := []idx.Box{
		{X0: 0, Y0: 0, X1: 256, Y1: 256},
		{X0: 256, Y0: 0, X1: 512, Y1: 256},
		{X0: 0, Y0: 256, X1: 256, Y1: 512},
		{X0: 256, Y0: 256, X1: 512, Y1: 512},
	}
	for _, mb := range []int64{0, 1, 4, 64} {
		b.Run(fmt.Sprintf("cache%dMiB", mb), func(b *testing.B) {
			engine := query.New(ds, mb<<20)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := quadrants[i%len(quadrants)]
				if _, err := engine.Read(context.Background(), query.Request{Field: "elevation", Box: q, Level: 16}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFieldCodecs ablates the per-field codec choice on terrain data.
func BenchmarkFieldCodecs(b *testing.B) {
	g := dem.Scale(dem.FBM(256, 256, 1, dem.DefaultFBM()), 0, 2500)
	raw := make([]byte, 4*len(g.Data))
	for i, v := range g.Data {
		u := uint32(int32(v * 100))
		raw[4*i] = byte(u)
		raw[4*i+1] = byte(u >> 8)
		raw[4*i+2] = byte(u >> 16)
		raw[4*i+3] = byte(u >> 24)
	}
	for _, name := range []string{"raw", "zlib", "lz4", "shuffle4-zlib"} {
		codec, err := compress.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			var encLen int
			for i := 0; i < b.N; i++ {
				enc, err := codec.Encode(raw)
				if err != nil {
					b.Fatal(err)
				}
				encLen = len(enc)
			}
			b.ReportMetric(float64(len(raw))/float64(encLen), "ratio")
		})
	}
}

// BenchmarkParallelFetchWAN ablates fetch parallelism against a
// cross-country conditioned store: with ~6ms RTT per object, overlapping
// fetches is the difference between an unusable and a fluid dashboard.
func BenchmarkParallelFetchWAN(b *testing.B) {
	meta, err := idx.NewMeta([]int{256, 256}, []idx.Field{{Name: "elevation", Type: idx.Float32}})
	if err != nil {
		b.Fatal(err)
	}
	meta.BitsPerBlock = 10 // 64 blocks
	remote := newCrossCountryStore(b)
	ds, err := idx.Create(context.Background(), storage.NewIDXBackend(remote, "wan"), meta)
	if err != nil {
		b.Fatal(err)
	}
	g := dem.Scale(dem.FBM(256, 256, 1, dem.DefaultFBM()), 0, 1000)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("parallel%d", par), func(b *testing.B) {
			ds.SetFetchParallelism(par)
			for i := 0; i < b.N; i++ {
				if _, _, err := ds.ReadFull(context.Background(), "elevation", 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkZFPToleranceSweep ablates the lossy-codec tolerance on a real
// terrain field: tighter bounds cost more bytes. The "ratio" metric is
// raw-bytes / stored-bytes.
func BenchmarkZFPToleranceSweep(b *testing.B) {
	g := dem.Scale(dem.FBM(256, 256, 1, dem.DefaultFBM()), 0, 2500)
	raw := make([]byte, 4*len(g.Data))
	for i, v := range g.Data {
		u := math.Float32bits(v)
		raw[4*i] = byte(u)
		raw[4*i+1] = byte(u >> 8)
		raw[4*i+2] = byte(u >> 16)
		raw[4*i+3] = byte(u >> 24)
	}
	for _, name := range []string{"zfp-1", "zfp-0.1", "zfp-0.01", "zfp-0.001", "shuffle4-zlib"} {
		codec, err := compress.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			var encLen int
			for i := 0; i < b.N; i++ {
				enc, err := codec.Encode(raw)
				if err != nil {
					b.Fatal(err)
				}
				encLen = len(enc)
			}
			b.ReportMetric(float64(len(raw))/float64(encLen), "ratio")
		})
	}
}

// BenchmarkCacheLRU exercises the cache under a zipf-ish key mix, the
// hot-path cost behind every warm dashboard interaction.
func BenchmarkCacheLRU(b *testing.B) {
	c := cache.NewMemTiered(1 << 22)
	for i := 0; i < 128; i++ {
		// Put adopts the buffer, so each entry needs its own backing array.
		c.Put(fmt.Sprintf("blk%d", i), make([]byte, 16<<10))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Get(fmt.Sprintf("blk%d", i%160)) // ~80% hits
	}
}
