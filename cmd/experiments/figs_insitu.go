package main

import (
	"fmt"
	"time"

	"insitubits"
)

// workload bundles one single-node experiment setup.
type workload struct {
	name     string
	mkSim    func() (insitubits.Simulator, error)
	steps    int
	selectK  int
	bins     int
	metric   insitubits.SelectionMetric
	fracs    fractions
	diskMBps float64
	maxCores int
	scale    string // human description of the size substitution
}

func heatXeonWorkload() workload {
	dx, dy, dz, steps, sel := 64, 64, 48, 100, 25
	if *quick {
		dx, dy, dz, steps, sel = 24, 24, 24, 20, 5
	}
	return workload{
		name:     "Heat3D/Xeon",
		mkSim:    func() (insitubits.Simulator, error) { return insitubits.NewHeat3D(dx, dy, dz) },
		steps:    steps,
		selectK:  sel,
		bins:     160,
		metric:   insitubits.MetricConditionalEntropy,
		fracs:    heatFracs,
		diskMBps: insitubits.Xeon.DiskMBps,
		maxCores: insitubits.Xeon.Cores,
		scale: fmt.Sprintf("grid %dx%dx%d (%.1f MB/step; paper: 800x1000x1000, 6.4 GB/step)",
			dx, dy, dz, float64(8*dx*dy*dz)/1e6),
	}
}

func heatMICWorkload() workload {
	w := heatXeonWorkload()
	dx, dy, dz := 64, 64, 12 // quarter of the Xeon grid, as in the paper
	if *quick {
		dx, dy, dz = 24, 24, 8
	}
	w.name = "Heat3D/MIC"
	w.mkSim = func() (insitubits.Simulator, error) { return insitubits.NewHeat3D(dx, dy, dz) }
	w.diskMBps = insitubits.MIC.DiskMBps
	w.maxCores = 56 // the paper uses 56 of the MIC's 60 cores
	w.scale = fmt.Sprintf("grid %dx%dx%d (%.1f MB/step; paper: 200x1000x1000, 1.6 GB/step)",
		dx, dy, dz, float64(8*dx*dy*dz)/1e6)
	return w
}

func luleshXeonWorkload() workload {
	n, steps, sel := 20, 100, 25
	if *quick {
		n, steps, sel = 8, 16, 4
	}
	return workload{
		name:     "Lulesh/Xeon",
		mkSim:    func() (insitubits.Simulator, error) { return insitubits.NewLulesh(n, n, n) },
		steps:    steps,
		selectK:  sel,
		bins:     120,
		metric:   insitubits.MetricEMDSpatial,
		fracs:    luleshFracs,
		diskMBps: insitubits.Xeon.DiskMBps,
		maxCores: insitubits.Xeon.Cores,
		scale: fmt.Sprintf("mesh %d^3 nodes, 12 arrays (%.1f MB/step; paper: 64M nodes, 6.14 GB/step)",
			n, float64(12*8*n*n*n)/1e6),
	}
}

func luleshMICWorkload() workload {
	w := luleshXeonWorkload()
	n := 14
	if *quick {
		n = 7
	}
	w.name = "Lulesh/MIC"
	w.mkSim = func() (insitubits.Simulator, error) { return insitubits.NewLulesh(n, n, n) }
	w.diskMBps = insitubits.MIC.DiskMBps
	w.maxCores = 56
	w.scale = fmt.Sprintf("mesh %d^3 nodes, 12 arrays (%.1f MB/step; paper: 8M nodes, 768 MB/step)",
		n, float64(12*8*n*n*n)/1e6)
	return w
}

// runMeasured executes the pipeline once, single-core, fully for real, and
// returns the result with measured busy times plus modelled output time.
func runMeasured(w workload, method insitubits.ReductionMethod, samplePct float64) (*insitubits.PipelineResult, error) {
	s, err := w.mkSim()
	if err != nil {
		return nil, err
	}
	st, err := insitubits.NewIOStore(w.diskMBps)
	if err != nil {
		return nil, err
	}
	cfg := insitubits.PipelineConfig{
		Sim:       s,
		Steps:     w.steps,
		Select:    w.selectK,
		Method:    method,
		Bins:      w.bins,
		SamplePct: samplePct,
		Seed:      1,
		Metric:    w.metric,
		Cores:     1,
		Store:     st,
	}
	return insitubits.RunPipeline(cfg)
}

// figBreakdown renders one Figure 7/8/9/10 panel: per-core-count stacked
// phase times for the full-data and bitmaps methods.
func figBreakdown(figName string, w workload) error {
	if *cores > 0 {
		w.maxCores = *cores
	}
	header(
		fmt.Sprintf("Figure %s — %s: selecting %d of %d time-steps (%s)", figName, w.name, w.selectK, w.steps, w.metric),
		fmt.Sprintf("%s; disk %.0f MB/s (modelled); compute measured 1-core, scaled by Amdahl (sim=%.2f reduce=%.2f select=%.2f)",
			w.scale, w.diskMBps, w.fracs.sim, w.fracs.reduce, w.fracs.sel),
	)
	full, err := runMeasured(w, insitubits.MethodFullData, 0)
	if err != nil {
		return err
	}
	bmp, err := runMeasured(w, insitubits.MethodBitmaps, 0)
	if err != nil {
		return err
	}
	if !equalInts(full.Selected, bmp.Selected) {
		return fmt.Errorf("methods selected different steps: %v vs %v", full.Selected, bmp.Selected)
	}
	row("%-6s %-9s %9s %10s %8s %8s %9s %8s", "cores", "method", "simulate", "bitmapgen", "select", "output", "total", "speedup")
	for _, c := range coreSeries(w.maxCores) {
		fb := scaleBreakdown(full.Breakdown, c, w.fracs)
		bb := scaleBreakdown(bmp.Breakdown, c, w.fracs)
		row("%-6d %-9s %9.3f %10.3f %8.3f %8.3f %9.3f %8s",
			c, "fulldata", secs(fb.Simulate), 0.0, secs(fb.Select), secs(fb.Output), secs(fb.Total()), "1.00x")
		row("%-6d %-9s %9.3f %10.3f %8.3f %8.3f %9.3f %7.2fx",
			c, "bitmaps", secs(bb.Simulate), secs(bb.Reduce), secs(bb.Select), secs(bb.Output), secs(bb.Total()),
			float64(fb.Total())/float64(bb.Total()))
	}
	row("selected steps: %v", bmp.Selected)
	row("bytes written: fulldata %.1f MB, bitmaps %.1f MB (%.1fx less)",
		mb(full.BytesWritten), mb(bmp.BytesWritten), float64(full.BytesWritten)/float64(bmp.BytesWritten))
	return nil
}

func figHeatXeon() error   { return figBreakdown("7", heatXeonWorkload()) }
func figHeatMIC() error    { return figBreakdown("8", heatMICWorkload()) }
func figLuleshXeon() error { return figBreakdown("9", luleshXeonWorkload()) }
func figLuleshMIC() error  { return figBreakdown("10", luleshMICWorkload()) }

// figMemory renders Figure 11: modelled in-situ memory (10 steps held) for
// the four workload/machine pairs, both methods.
func figMemory() error {
	header("Figure 11 — Memory cost comparison (10 time-steps held in memory)",
		"model: fulldata = prev step + in-flight step + 10 steps; bitmaps = in-flight step + prev summary + 10 summaries")
	row("%-14s %14s %14s %10s", "workload", "fulldata(MB)", "bitmaps(MB)", "ratio")
	for _, w := range []workload{heatXeonWorkload(), heatMICWorkload(), luleshXeonWorkload(), luleshMICWorkload()} {
		w.steps = min(w.steps, 12)
		w.selectK = min(w.selectK, 4)
		res, err := runMeasured(w, insitubits.MethodBitmaps, 0)
		if err != nil {
			return err
		}
		fullMem := insitubits.MemoryModel(insitubits.MethodFullData, res.StepBytes, 0, 10)
		bmpMem := insitubits.MemoryModel(insitubits.MethodBitmaps, res.StepBytes, res.SummaryBytes, 10)
		row("%-14s %14.1f %14.1f %9.2fx", w.name, mb(fullMem), mb(bmpMem), float64(fullMem)/float64(bmpMem))
	}
	row("(paper: Heat3D 3.59x/3.39x, Lulesh 2.02x/1.99x smaller)")
	return nil
}

// figAllocation renders Figure 12: shared cores vs separate-core splits.
func figAllocation(panel string) error {
	var w workload
	var total int
	switch panel {
	case "12a":
		w, total = heatXeonWorkload(), 28
	case "12b":
		w, total = heatMICWorkload(), 56
	default:
		w, total = luleshXeonWorkload(), 28
	}
	if *cores > 0 {
		total = *cores
	}
	header(
		fmt.Sprintf("Figure %s — core allocation strategies, %s, %d cores, %d time-steps", panel, w.name, total, w.steps),
		fmt.Sprintf("%s; separate-cores steady state = steps x max(sim(c_i), bitmap(c_j)); shared = steps x (sim(c_all)+bitmap(c_all))", w.scale),
	)
	// Measure true 1-core per-step costs over a short calibration run.
	calib := w
	calib.steps = min(w.steps, 8)
	calib.selectK = min(w.selectK, 2)
	res, err := runMeasured(calib, insitubits.MethodBitmaps, 0)
	if err != nil {
		return err
	}
	simStep := res.Breakdown.Simulate / time.Duration(calib.steps)
	redStep := res.Breakdown.Reduce / time.Duration(calib.steps)

	perStepShared := amdahl(simStep, total, w.fracs.sim) + amdahl(redStep, total, w.fracs.reduce)
	row("%-10s %12s", "allocation", "total(ms)")
	row("%-10s %12.3f", "c_all", 1e3*float64(w.steps)*secs(perStepShared))
	bestName, bestTime := "c_all", float64(w.steps)*secs(perStepShared)
	for _, simC := range []int{total * 1 / 7, total * 2 / 7, total * 3 / 7, total * 4 / 7, total * 5 / 7, total * 6 / 7} {
		if simC < 1 || simC >= total {
			continue
		}
		redC := total - simC
		ts := amdahl(simStep, simC, w.fracs.sim)
		tr := amdahl(redStep, redC, w.fracs.reduce)
		step := ts
		if tr > step {
			step = tr
		}
		t := float64(w.steps) * secs(step)
		name := fmt.Sprintf("c%d_c%d", simC, redC)
		row("%-10s %12.3f", name, 1e3*t)
		if t < bestTime {
			bestName, bestTime = name, t
		}
	}
	// The paper's Equation 1/2 recommendation.
	simT := amdahl(simStep, total, w.fracs.sim)
	redT := amdahl(redStep, total, w.fracs.reduce)
	row("best allocation: %s (%.3f ms); Eq.1/2 recommends %s", bestName, 1e3*bestTime, insitubits.SplitCores(total, simT, redT).Describe())
	return nil
}

// figSamplingTime renders Figure 15: bitmaps vs sampling levels on Heat3D,
// 32 cores.
func figSamplingTime() error {
	w := heatXeonWorkload()
	c := 32
	if *cores > 0 {
		c = *cores
	}
	header(
		fmt.Sprintf("Figure 15 — bitmaps vs in-situ sampling, %s, %d cores, selecting %d of %d", w.name, c, w.selectK, w.steps),
		w.scale+"; process = bitmap generation or down-sampling",
	)
	row("%-12s %9s %8s %8s %8s %9s", "method", "simulate", "process", "select", "output", "total")
	bmp, err := runMeasured(w, insitubits.MethodBitmaps, 0)
	if err != nil {
		return err
	}
	bb := scaleBreakdown(bmp.Breakdown, c, w.fracs)
	row("%-12s %9.3f %8.3f %8.3f %8.3f %9.3f", "bitmaps",
		secs(bb.Simulate), secs(bb.Reduce), secs(bb.Select), secs(bb.Output), secs(bb.Total()))
	for _, pct := range []float64{30, 15, 10, 5, 1} {
		res, err := runMeasured(w, insitubits.MethodSampling, pct)
		if err != nil {
			return err
		}
		sb := scaleBreakdown(res.Breakdown, c, w.fracs)
		row("%-12s %9.3f %8.3f %8.3f %8.3f %9.3f", fmt.Sprintf("sample-%g%%", pct),
			secs(sb.Simulate), secs(sb.Reduce), secs(sb.Select), secs(sb.Output), secs(sb.Total()))
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
