// Benchmarks mirroring every figure of the paper's evaluation plus the
// ablations called out in DESIGN.md §3. Each BenchmarkFigNN exercises the
// exact code path that regenerates the corresponding figure (the experiment
// harness `cmd/experiments` prints the full series; these measure the cost
// of one representative configuration). Run:
//
//	go test -bench=. -benchmem
package insitubits_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"insitubits"
)

// pipelineBench runs one in-situ pipeline configuration.
func pipelineBench(b *testing.B, mk func() (insitubits.Simulator, error),
	method insitubits.ReductionMethod, metric insitubits.SelectionMetric,
	bins int, samplePct float64, diskMBps float64) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := mk()
		if err != nil {
			b.Fatal(err)
		}
		st, err := insitubits.NewIOStore(diskMBps)
		if err != nil {
			b.Fatal(err)
		}
		res, err := insitubits.RunPipeline(insitubits.PipelineConfig{
			Sim: s, Steps: 16, Select: 4,
			Method: method, Bins: bins, SamplePct: samplePct, Seed: 1,
			Metric: metric, Cores: 2, Store: st,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Selected) != 4 {
			b.Fatalf("selected %v", res.Selected)
		}
	}
}

func heat() (insitubits.Simulator, error)    { return insitubits.NewHeat3D(32, 32, 24) }
func heatMIC() (insitubits.Simulator, error) { return insitubits.NewHeat3D(32, 32, 8) }
func lul() (insitubits.Simulator, error)     { return insitubits.NewLulesh(12, 12, 12) }
func lulMIC() (insitubits.Simulator, error)  { return insitubits.NewLulesh(8, 8, 8) }

// BenchmarkFig7 covers Heat3D-on-Xeon in-situ analysis (bitmaps vs the
// full-data baseline below).
func BenchmarkFig7HeatXeonBitmaps(b *testing.B) {
	pipelineBench(b, heat, insitubits.MethodBitmaps, insitubits.MetricConditionalEntropy, 160, 0, insitubits.Xeon.DiskMBps)
}

func BenchmarkFig7HeatXeonFullData(b *testing.B) {
	pipelineBench(b, heat, insitubits.MethodFullData, insitubits.MetricConditionalEntropy, 160, 0, insitubits.Xeon.DiskMBps)
}

// BenchmarkFig8 covers the MIC profile (quarter grid, slower disk).
func BenchmarkFig8HeatMICBitmaps(b *testing.B) {
	pipelineBench(b, heatMIC, insitubits.MethodBitmaps, insitubits.MetricConditionalEntropy, 160, 0, insitubits.MIC.DiskMBps)
}

// BenchmarkFig9 covers Lulesh-on-Xeon with the spatial EMD metric over all
// 12 arrays.
func BenchmarkFig9LuleshXeonBitmaps(b *testing.B) {
	pipelineBench(b, lul, insitubits.MethodBitmaps, insitubits.MetricEMDSpatial, 120, 0, insitubits.Xeon.DiskMBps)
}

func BenchmarkFig9LuleshXeonFullData(b *testing.B) {
	pipelineBench(b, lul, insitubits.MethodFullData, insitubits.MetricEMDSpatial, 120, 0, insitubits.Xeon.DiskMBps)
}

// BenchmarkFig10 covers Lulesh on the MIC profile.
func BenchmarkFig10LuleshMICBitmaps(b *testing.B) {
	pipelineBench(b, lulMIC, insitubits.MethodBitmaps, insitubits.MetricEMDSpatial, 120, 0, insitubits.MIC.DiskMBps)
}

// BenchmarkFig11 measures the memory-model evaluation itself (the figure's
// numbers come from StepBytes/SummaryBytes of a bitmaps run).
func BenchmarkFig11MemoryModel(b *testing.B) {
	s, err := insitubits.NewHeat3D(24, 24, 24)
	if err != nil {
		b.Fatal(err)
	}
	res, err := insitubits.RunPipeline(insitubits.PipelineConfig{
		Sim: s, Steps: 8, Select: 2,
		Method: insitubits.MethodBitmaps, Bins: 160,
		Metric: insitubits.MetricConditionalEntropy, Cores: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full := insitubits.MemoryModel(insitubits.MethodFullData, res.StepBytes, 0, 10)
		bmp := insitubits.MemoryModel(insitubits.MethodBitmaps, res.StepBytes, res.SummaryBytes, 10)
		if bmp >= full {
			b.Fatal("bitmaps not smaller")
		}
	}
}

// BenchmarkFig12 compares the two core-allocation strategies end to end
// (real concurrency, bounded queue).
func BenchmarkFig12SharedCores(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := insitubits.NewHeat3D(24, 24, 24)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := insitubits.RunPipeline(insitubits.PipelineConfig{
			Sim: s, Steps: 12, Select: 3,
			Method: insitubits.MethodBitmaps, Bins: 160,
			Metric: insitubits.MetricConditionalEntropy, Cores: 4,
			Strategy: insitubits.SharedCores{},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12SeparateCores(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := insitubits.NewHeat3D(24, 24, 24)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := insitubits.RunPipeline(insitubits.PipelineConfig{
			Sim: s, Steps: 12, Select: 3,
			Method: insitubits.MethodBitmaps, Bins: 160,
			Metric: insitubits.MetricConditionalEntropy, Cores: 4,
			Strategy: insitubits.SeparateCores{SimCores: 2, ReduceCores: 2, QueueCap: 2},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13 runs the multi-node in-situ environment with halo exchange
// and a shared remote store.
func BenchmarkFig13Cluster(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		remote, err := insitubits.NewIOStore(100)
		if err != nil {
			b.Fatal(err)
		}
		res, err := insitubits.RunCluster(insitubits.ClusterConfig{
			Nodes: 4, CoresPerNode: 1,
			GridX: 16, GridY: 16, GridZ: 48,
			Steps: 10, Select: 3,
			Metric: insitubits.MetricConditionalEntropy,
			Method: insitubits.ClusterBitmaps,
			Bins:   160,
			Remote: remote,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Selected) != 3 {
			b.Fatalf("selected %v", res.Selected)
		}
	}
}

// fig14Setup builds the mining inputs once per benchmark.
func fig14Setup(b *testing.B) (temp, salt []float64, mt, ms insitubits.Mapper, xt, xs *insitubits.Index) {
	b.Helper()
	d, err := insitubits.GenerateOcean(64, 64, 16, 7)
	if err != nil {
		b.Fatal(err)
	}
	temp, err = d.VarCurveOrder("temperature")
	if err != nil {
		b.Fatal(err)
	}
	salt, err = d.VarCurveOrder("salinity")
	if err != nil {
		b.Fatal(err)
	}
	tlo, thi := insitubits.MinMax(temp)
	slo, shi := insitubits.MinMax(salt)
	mt, err = insitubits.NewUniformBins(tlo, thi+1e-9, 48)
	if err != nil {
		b.Fatal(err)
	}
	ms, err = insitubits.NewUniformBins(slo, shi+1e-9, 48)
	if err != nil {
		b.Fatal(err)
	}
	return temp, salt, mt, ms, insitubits.BuildIndex(temp, mt), insitubits.BuildIndex(salt, ms)
}

var miningCfg = insitubits.MiningConfig{UnitSize: 512, ValueThreshold: 0.002, SpatialThreshold: 0.05}

// BenchmarkFig14 times Algorithm 2 against the exhaustive baseline.
func BenchmarkFig14MineBitmaps(b *testing.B) {
	_, _, _, _, xt, xs := fig14Setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := insitubits.Mine(xt, xs, miningCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14MineFullData(b *testing.B) {
	temp, salt, mt, ms, _, _ := fig14Setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := insitubits.MineFullData(temp, salt, mt, ms, miningCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15 covers the sampling reduction method in the pipeline.
func BenchmarkFig15Sampling30(b *testing.B) {
	pipelineBench(b, heat, insitubits.MethodSampling, insitubits.MetricConditionalEntropy, 160, 30, insitubits.Xeon.DiskMBps)
}

// BenchmarkFig16 measures the pairwise metric evaluation the accuracy
// figure is built from — via bitmaps, the path with zero loss.
func BenchmarkFig16PairwiseMetrics(b *testing.B) {
	h, err := insitubits.NewHeat3D(24, 24, 16)
	if err != nil {
		b.Fatal(err)
	}
	m, err := insitubits.NewUniformBins(0, 130, 160)
	if err != nil {
		b.Fatal(err)
	}
	var steps []*insitubits.Index
	for t := 0; t < 8; t++ {
		steps = append(steps, insitubits.BuildIndex(h.Step(1)[0].Data, m))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := range steps {
			for c := range steps {
				if a != c {
					insitubits.PairFromBitmaps(steps[a], steps[c])
				}
			}
		}
	}
}

// BenchmarkFig17 measures per-subset MI from bitmaps (the accuracy figure's
// exact reference).
func BenchmarkFig17SubsetMI(b *testing.B) {
	_, _, _, _, xt, xs := fig14Setup(b)
	n := xt.N()
	unit := (n + 59) / 60
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for bin := 0; bin < xt.Bins(); bin++ {
			xt.Bitmap(bin).CountUnits(unit)
		}
		_ = xs
	}
}

// --- Ablations (DESIGN.md §3) ---

func ablationData(b *testing.B) ([]float64, insitubits.Mapper) {
	b.Helper()
	h, err := insitubits.NewHeat3D(48, 48, 32)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.Step(1)
	}
	m, err := insitubits.NewUniformBins(0, 130, 160)
	if err != nil {
		b.Fatal(err)
	}
	return h.Step(1)[0].Data, m
}

// Streaming (Algorithm 1, lazy) vs two-phase compression.
func BenchmarkAblationStreamingBuild(b *testing.B) {
	data, m := ablationData(b)
	b.SetBytes(int64(8 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insitubits.BuildIndex(data, m)
	}
}

func BenchmarkAblationTwoPhaseBuild(b *testing.B) {
	data, m := ablationData(b)
	b.SetBytes(int64(8 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insitubits.BuildIndexTwoPhase(data, m)
	}
}

// Dense (paper-literal Algorithm 1) vs the run build.
func BenchmarkAblationDenseBuilder(b *testing.B) {
	data, m := ablationData(b)
	b.SetBytes(int64(8 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insitubits.BuildIndexAlgorithm1(data, m)
	}
}

// Tiled Z-order (Z order between 8³ tiles, row order inside them) vs
// row-major layout: the same mining over the two element orders.
func BenchmarkAblationMiningZOrder(b *testing.B)   { benchMiningLayout(b, true) }
func BenchmarkAblationMiningRowMajor(b *testing.B) { benchMiningLayout(b, false) }

func benchMiningLayout(b *testing.B, curve bool) {
	b.Helper()
	d, err := insitubits.GenerateOcean(64, 64, 16, 7)
	if err != nil {
		b.Fatal(err)
	}
	get := d.Var
	if curve {
		get = d.VarCurveOrder
	}
	temp, err := get("temperature")
	if err != nil {
		b.Fatal(err)
	}
	salt, err := get("salinity")
	if err != nil {
		b.Fatal(err)
	}
	tlo, thi := insitubits.MinMax(temp)
	slo, shi := insitubits.MinMax(salt)
	mt, _ := insitubits.NewUniformBins(tlo, thi+1e-9, 48)
	ms, _ := insitubits.NewUniformBins(slo, shi+1e-9, 48)
	xt := insitubits.BuildIndex(temp, mt)
	xs := insitubits.BuildIndex(salt, ms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := insitubits.Mine(xt, xs, miningCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Codec ablation: the same random bits encoded under each codec, measured
// for logical-op latency and encoded size across bin densities. Results are
// recorded in EXPERIMENTS.md ("Codec ablation").
var codecBenchDensities = []float64{0.001, 0.01, 0.1, 0.5}

var codecBenchIDs = []insitubits.Codec{insitubits.CodecWAH, insitubits.CodecBBC}

func codecBenchPair(b *testing.B, density float64, id insitubits.Codec) (insitubits.Bitmap, insitubits.Bitmap) {
	b.Helper()
	r := rand.New(rand.NewSource(42))
	const n = 1 << 20
	mk := func() insitubits.Bitmap {
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = r.Float64() < density
		}
		return insitubits.EncodeBitmap(insitubits.FromBools(bs), id)
	}
	return mk(), mk()
}

func benchCodecOp(b *testing.B, op func(x, y insitubits.Bitmap)) {
	for _, d := range codecBenchDensities {
		for _, id := range codecBenchIDs {
			b.Run(fmt.Sprintf("%s/d=%g", id, d), func(b *testing.B) {
				x, y := codecBenchPair(b, d, id)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op(x, y)
				}
				b.ReportMetric(float64(x.SizeBytes()), "enc-bytes")
			})
		}
	}
}

func BenchmarkCodecAnd(b *testing.B) {
	benchCodecOp(b, func(x, y insitubits.Bitmap) { x.And(y) })
}

func BenchmarkCodecAndCount(b *testing.B) {
	benchCodecOp(b, func(x, y insitubits.Bitmap) { x.AndCount(y) })
}

func BenchmarkCodecOr(b *testing.B) {
	benchCodecOp(b, func(x, y insitubits.Bitmap) { x.Or(y) })
}

func BenchmarkCodecCountRange(b *testing.B) {
	benchCodecOp(b, func(x, y insitubits.Bitmap) { x.CountRange(x.Len()/4, 3*x.Len()/4) })
}

// Core allocation: Equation 1/2 calibration cost.
func BenchmarkAblationCalibrate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := insitubits.NewHeat3D(24, 24, 16)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := insitubits.Calibrate(insitubits.PipelineConfig{
			Sim: s, Steps: 8, Select: 2,
			Method: insitubits.MethodBitmaps, Bins: 160,
			Metric: insitubits.MetricConditionalEntropy, Cores: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Companion analyses (DESIGN.md §1.2b) ---

// BenchmarkQueryAggregation measures bounded aggregation over one index.
func BenchmarkQueryAggregation(b *testing.B) {
	data, m := ablationData(b)
	x := insitubits.BuildIndex(data, m)
	sub := insitubits.QuerySubset{ValueLo: 20, ValueHi: 80, SpatialLo: 1000, SpatialHi: len(data) - 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := insitubits.SubsetSum(context.Background(), x, sub); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorrelationQuery measures a subset correlation query.
func BenchmarkCorrelationQuery(b *testing.B) {
	_, _, _, _, xt, xs := fig14Setup(b)
	sub := insitubits.QuerySubset{SpatialLo: 0, SpatialHi: xt.N() / 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := insitubits.CorrelationQuery(context.Background(), xt, xs, sub, sub); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubgroupDiscovery measures a full beam search.
func BenchmarkSubgroupDiscovery(b *testing.B) {
	d, err := insitubits.GenerateOcean(32, 32, 8, 7)
	if err != nil {
		b.Fatal(err)
	}
	mk := func(name string) *insitubits.Index {
		data, err := d.VarCurveOrder(name)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := insitubits.MinMax(data)
		m, _ := insitubits.NewUniformBins(lo, hi+1e-9, 16)
		return insitubits.BuildIndex(data, m)
	}
	xt, xs, xo := mk("temperature"), mk("salinity"), mk("oxygen")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := insitubits.DiscoverSubgroups([]*insitubits.Index{xt, xs}, xo, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectDP measures the offline DP selection over 20 steps.
func BenchmarkSelectDP(b *testing.B) {
	h, err := insitubits.NewHeat3D(16, 16, 12)
	if err != nil {
		b.Fatal(err)
	}
	m, _ := insitubits.NewUniformBins(0, 130, 96)
	var steps []insitubits.Summary
	for i := 0; i < 20; i++ {
		steps = append(steps, insitubits.NewBitmapSummary(insitubits.BuildIndex(h.Step(1)[0].Data, m)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := insitubits.SelectTimeStepsDP(steps, 6, insitubits.MetricConditionalEntropy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveLoad measures reloading a persisted pipeline output.
func BenchmarkArchiveLoad(b *testing.B) {
	dir := b.TempDir()
	h, err := insitubits.NewHeat3D(16, 16, 12)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := insitubits.RunPipeline(insitubits.PipelineConfig{
		Sim: h, Steps: 12, Select: 4,
		Method: insitubits.MethodBitmaps, Bins: 96,
		Metric: insitubits.MetricConditionalEntropy, Cores: 1,
		OutputDir: dir,
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := insitubits.LoadArchive(dir); err != nil {
			b.Fatal(err)
		}
	}
}
