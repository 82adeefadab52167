// Integration tests across package boundaries, driven through the public
// facade exactly as an application would use it.
package insitubits_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"insitubits"
)

// TestEndToEndInSituThenOffline runs the full lifecycle: simulate, reduce
// in situ, persist the selected bitmaps to real files, reload them, and run
// offline analyses on the reloaded indices.
func TestEndToEndInSituThenOffline(t *testing.T) {
	dir := t.TempDir()

	// In-situ phase.
	sim, err := insitubits.NewHeat3D(24, 24, 16)
	if err != nil {
		t.Fatal(err)
	}
	store, err := insitubits.NewIOStore(250)
	if err != nil {
		t.Fatal(err)
	}
	res, err := insitubits.RunPipeline(insitubits.PipelineConfig{
		Sim: sim, Steps: 20, Select: 5,
		Method: insitubits.MethodBitmaps, Bins: 130,
		Metric: insitubits.MetricConditionalEntropy,
		Cores:  2, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Replay the trajectory and persist exactly the selected steps.
	replay, err := insitubits.NewHeat3D(24, 24, 16)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := insitubits.NewUniformBins(0, 130, 130)
	if err != nil {
		t.Fatal(err)
	}
	keep := map[int]bool{}
	for _, s := range res.Selected {
		keep[s] = true
	}
	var paths []string
	var rawKept [][]float64
	for step := 0; step < 20; step++ {
		data := replay.Step(2)[0].Data
		if !keep[step] {
			continue
		}
		x := insitubits.BuildIndexParallel(data, mapper, 2)
		p := filepath.Join(dir, fmt.Sprintf("step%03d.isbm", step))
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := insitubits.WriteIndexFile(f, x); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
		rawKept = append(rawKept, data)
	}
	if len(paths) != 5 {
		t.Fatalf("persisted %d steps", len(paths))
	}

	// Offline phase: reload and verify analyses match the retained raw data.
	var reloaded []*insitubits.Index
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		x, err := insitubits.ReadIndexFile(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		reloaded = append(reloaded, x)
	}
	for i, x := range reloaded {
		wantHist := insitubits.Histogram(rawKept[i], mapper)
		for b, c := range x.Histogram() {
			if c != wantHist[b] {
				t.Fatalf("step %d bin %d: reloaded %d, raw %d", i, b, c, wantHist[b])
			}
		}
	}
	// Pairwise metrics between reloaded steps equal raw-data metrics.
	for i := 1; i < len(reloaded); i++ {
		got := insitubits.PairFromBitmaps(reloaded[i], reloaded[0])
		want := insitubits.PairFromData(rawKept[i], rawKept[0], mapper, mapper)
		if math.Abs(got.MI-want.MI) > 1e-9 || math.Abs(got.CondEntropyAB-want.CondEntropyAB) > 1e-9 {
			t.Fatalf("step %d: reloaded metrics diverge: %+v vs %+v", i, got, want)
		}
	}
}

// TestGreedyVsDPThroughFacade verifies the DP selection dominates greedy on
// the chain objective when both run over bitmap summaries.
func TestGreedyVsDPThroughFacade(t *testing.T) {
	sim, err := insitubits.NewHeat3D(16, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := insitubits.NewUniformBins(0, 130, 96)
	if err != nil {
		t.Fatal(err)
	}
	var steps []insitubits.Summary
	for i := 0; i < 18; i++ {
		steps = append(steps, insitubits.NewBitmapSummary(insitubits.BuildIndex(sim.Step(2)[0].Data, m)))
	}
	greedy, err := insitubits.SelectTimeSteps(steps, 5, insitubits.MetricConditionalEntropy)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := insitubits.SelectTimeStepsDP(steps, 5, insitubits.MetricConditionalEntropy)
	if err != nil {
		t.Fatal(err)
	}
	gs := insitubits.SelectionChainScore(steps, greedy.Selected, insitubits.MetricConditionalEntropy)
	ds := insitubits.SelectionChainScore(steps, dp.Selected, insitubits.MetricConditionalEntropy)
	if ds < gs-1e-9 {
		t.Fatalf("DP score %g below greedy %g", ds, gs)
	}
}

// TestMiningQuerySubgroupOnOcean chains the offline analyses on one ocean
// dataset: mining finds the planted currents, the correlation query
// confirms elevated MI there, and subgroup discovery explains oxygen.
func TestMiningQuerySubgroupOnOcean(t *testing.T) {
	d, err := insitubits.GenerateOcean(64, 64, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	index := func(name string, bins int) *insitubits.Index {
		data, err := d.VarCurveOrder(name)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := insitubits.MinMax(data)
		m, err := insitubits.NewUniformBins(lo, hi+1e-9, bins)
		if err != nil {
			t.Fatal(err)
		}
		return insitubits.BuildIndex(data, m)
	}
	xt := index("temperature", 48)
	xs := index("salinity", 48)
	xo := index("oxygen", 48)

	findings, err := insitubits.Mine(xt, xs, insitubits.MiningConfig{
		UnitSize: 256, ValueThreshold: 0.002, SpatialThreshold: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("mining found nothing on planted data")
	}
	planted := d.PlantedCurveCells()
	hits := 0
	for _, f := range findings {
		overlap := 0
		for p := f.Begin; p < f.End; p++ {
			if planted[p] {
				overlap++
			}
		}
		if overlap*4 >= f.End-f.Begin {
			hits++
		}
	}
	if frac := float64(hits) / float64(len(findings)); frac < 0.8 {
		t.Fatalf("only %.0f%% of findings on planted currents", 100*frac)
	}

	// Correlation query over the strongest finding's unit vs a control.
	best := findings[0]
	for _, f := range findings {
		if f.SpatialMI > best.SpatialMI {
			best = f
		}
	}
	sub := insitubits.QuerySubset{SpatialLo: best.Begin, SpatialHi: best.End}
	in, err := insitubits.CorrelationQuery(context.Background(), xt, xs, sub, sub)
	if err != nil {
		t.Fatal(err)
	}
	if in.MI <= 0 {
		t.Fatalf("planted unit MI %g not positive", in.MI)
	}

	// Subgroup discovery over (T, S) explaining oxygen runs end to end.
	sgs, err := insitubits.DiscoverSubgroups([]*insitubits.Index{xt, xs}, xo, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sgs) == 0 {
		t.Fatal("no subgroups discovered")
	}
	if s := insitubits.DescribeSubgroup(sgs[0], []*insitubits.Index{xt, xs}, []string{"T", "S"}); s == "" {
		t.Fatal("empty subgroup description")
	}
}

// TestClusterMatchesSingleNodePipeline cross-checks the cluster driver
// against the single-node pipeline on the same global problem: with one
// node the cluster is just the pipeline with different plumbing, so both
// must select the same steps.
func TestClusterMatchesSingleNodePipeline(t *testing.T) {
	const gx, gy, gz, steps, k = 16, 16, 12, 12, 4
	clusterRes, err := insitubits.RunCluster(insitubits.ClusterConfig{
		Nodes: 1, CoresPerNode: 2,
		GridX: gx, GridY: gy, GridZ: gz,
		Steps: steps, Select: k,
		Metric: insitubits.MetricConditionalEntropy,
		Method: insitubits.ClusterBitmaps,
		Bins:   160, LocalMBps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := insitubits.NewHeat3D(gx, gy, gz)
	if err != nil {
		t.Fatal(err)
	}
	pipeRes, err := insitubits.RunPipeline(insitubits.PipelineConfig{
		Sim: sim, Steps: steps, Select: k,
		Method: insitubits.MethodBitmaps, Bins: 160,
		Metric: insitubits.MetricConditionalEntropy, Cores: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusterRes.Selected) != len(pipeRes.Selected) {
		t.Fatalf("cluster %v vs pipeline %v", clusterRes.Selected, pipeRes.Selected)
	}
	for i := range pipeRes.Selected {
		if clusterRes.Selected[i] != pipeRes.Selected[i] {
			t.Fatalf("cluster %v vs pipeline %v", clusterRes.Selected, pipeRes.Selected)
		}
	}
}

// TestQueryAggregationAgainstSimulation checks the aggregation bounds on
// real simulation output through the facade.
func TestQueryAggregationAgainstSimulation(t *testing.T) {
	sim, err := insitubits.NewLulesh(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	var fields []insitubits.Field
	for i := 0; i < 5; i++ {
		fields = sim.Step(2)
	}
	ranges := sim.Ranges()
	for k, f := range fields {
		m, err := insitubits.NewUniformBins(ranges[k][0], ranges[k][1], 64)
		if err != nil {
			t.Fatal(err)
		}
		x := insitubits.BuildIndex(f.Data, m)
		agg, err := insitubits.SubsetSum(context.Background(), x, insitubits.QuerySubset{})
		if err != nil {
			t.Fatal(err)
		}
		trueSum := 0.0
		for _, v := range f.Data {
			trueSum += v
		}
		if trueSum < agg.Lo-1e-6 || trueSum > agg.Hi+1e-6 {
			t.Fatalf("%s: true sum %g outside [%g, %g]", f.Name, trueSum, agg.Lo, agg.Hi)
		}
	}
}

// TestExternalFeedDrivesPipeline plugs an external producer (an application
// owning its own simulation loop) into the in-situ pipeline through the
// FeedSimulator adapter, running the separate-cores strategy so the
// producer, the queue and the reducer all overlap.
func TestExternalFeedDrivesPipeline(t *testing.T) {
	const n, steps = 4000, 24
	feed, ch, err := insitubits.NewFeedSimulator("external", []string{"field"}, n, [][2]float64{{0, 10}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for s := 0; s < steps; s++ {
			data := make([]float64, n)
			for i := range data {
				data[i] = 5 + 4*math.Sin(float64(i)/150+float64(s)/4)
			}
			ch <- []insitubits.Field{{Name: "field", Data: data}}
		}
		close(ch)
	}()
	res, err := insitubits.RunPipeline(insitubits.PipelineConfig{
		Sim: feed, Steps: steps, Select: 6,
		Method: insitubits.MethodBitmaps, Bins: 64,
		Metric:   insitubits.MetricConditionalEntropy,
		Cores:    2,
		Strategy: insitubits.SeparateCores{SimCores: 1, ReduceCores: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 6 || res.Selected[0] != 0 {
		t.Fatalf("selected %v", res.Selected)
	}
	if feed.StepsSeen() != steps {
		t.Fatalf("feed consumed %d steps, want %d", feed.StepsSeen(), steps)
	}
}

// TestMergeFindingsRoundTrip mines, merges, and checks that regions tile
// the same element coverage as the raw findings.
func TestMergeFindingsRoundTrip(t *testing.T) {
	d, err := insitubits.GenerateOcean(64, 64, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	temp, _ := d.VarCurveOrder("temperature")
	salt, _ := d.VarCurveOrder("salinity")
	// Coarse bins: one value pair then spans several adjacent Z-units of a
	// planted current, which is what region merging coalesces.
	tlo, thi := insitubits.MinMax(temp)
	slo, shi := insitubits.MinMax(salt)
	mt, _ := insitubits.NewUniformBins(tlo, thi+1e-9, 12)
	ms, _ := insitubits.NewUniformBins(slo, shi+1e-9, 12)
	cfg := insitubits.MiningConfig{UnitSize: 256, ValueThreshold: 0.002, SpatialThreshold: 0.02}
	xa := insitubits.BuildIndex(temp, mt)
	xb := insitubits.BuildIndex(salt, ms)
	serial, err := insitubits.Mine(xa, xb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := insitubits.MineParallel(xa, xb, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d vs parallel %d findings", len(serial), len(parallel))
	}
	regions := insitubits.MergeFindings(serial)
	units := 0
	for _, reg := range regions {
		units += reg.Units
	}
	if units != len(serial) {
		t.Fatalf("regions cover %d units, findings %d", units, len(serial))
	}
	if len(regions) >= len(serial) && len(serial) > 4 {
		t.Fatalf("merging did not coalesce anything: %d regions from %d findings", len(regions), len(serial))
	}
}
