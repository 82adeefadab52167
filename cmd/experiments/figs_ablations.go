package main

import (
	"time"

	"insitubits"
)

// figAblations prints the DESIGN.md §3 ablation table: each design choice
// measured against its alternative on the same inputs. All numbers here are
// direct single-core measurements (no scaling model).
func figAblations() error {
	header("Ablations — design choices vs alternatives (measured, single core)",
		"see DESIGN.md §3; benchmarks BenchmarkAblation* measure the same pairs")

	gx, gy, gz := 48, 48, 32
	if *quick {
		gx, gy, gz = 24, 24, 16
	}
	h, err := insitubits.NewHeat3D(gx, gy, gz)
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		h.Step(1)
	}
	data := h.Step(1)[0].Data
	m, err := insitubits.NewUniformBins(0, 130, 160)
	if err != nil {
		return err
	}

	timeIt := func(fn func()) time.Duration {
		// Repeat until ≥20ms of samples for a stable median-ish estimate.
		best := time.Duration(1 << 62)
		total := time.Duration(0)
		for total < 20*time.Millisecond {
			t0 := time.Now()
			fn()
			d := time.Since(t0)
			total += d
			if d < best {
				best = d
			}
		}
		return best
	}

	row("%-44s %12s %12s %8s", "choice vs alternative", "chosen(ms)", "alt(ms)", "factor")
	pr := func(name string, chosen, alt time.Duration) {
		row("%-44s %12.3f %12.3f %7.1fx", name,
			1e3*chosen.Seconds(), 1e3*alt.Seconds(), float64(alt)/float64(chosen))
	}

	// 1. Streaming (Algorithm 1) vs two-phase compression.
	tStream := timeIt(func() { insitubits.BuildIndex(data, m) })
	tTwo := timeIt(func() { insitubits.BuildIndexTwoPhase(data, m) })
	pr("streaming build vs two-phase", tStream, tTwo)

	// 2. Run build vs paper-literal dense per-segment merge.
	tDense := timeIt(func() { insitubits.BuildIndexAlgorithm1(data, m) })
	pr("run build vs dense Algorithm 1", tStream, tDense)

	// 3. Equi-depth vs uniform binning on skewed data: compare index sizes.
	d, err := insitubits.GenerateOcean(64, 64, 16, 7)
	if err != nil {
		return err
	}
	temp, _ := d.VarCurveOrder("temperature")
	tlo, thi := insitubits.MinMax(temp)
	mt, _ := insitubits.NewUniformBins(tlo, thi+1e-9, 48)
	xt := insitubits.BuildIndex(temp, mt)
	eq, err := insitubits.NewEquiDepthBins(temp, 48)
	if err != nil {
		return err
	}
	xeq := insitubits.BuildIndex(temp, eq)
	row("%-44s %12.1f %12.1f %7.1fx", "index size: uniform vs equi-depth bins (KB)",
		float64(xt.SizeBytes())/1e3, float64(xeq.SizeBytes())/1e3,
		float64(xeq.SizeBytes())/float64(xt.SizeBytes()))
	return nil
}
