package main

import (
	"context"
	"fmt"
	"math"
	"reflect"

	"insitubits"
)

// figVerify machine-checks the paper's headline *correctness* claims — the
// ones that must hold exactly, independent of hardware. Performance claims
// live in the figures; these are pass/fail.
func figVerify() error {
	header("Claims verifier — the paper's exactness claims, machine-checked",
		"each claim either PASSes exactly or the command exits nonzero")
	failures := 0
	check := func(name string, ok bool, detail string) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			failures++
		}
		row("  [%s] %-58s %s", status, name, detail)
	}

	// Workloads at verification scale.
	h, err := insitubits.NewHeat3D(24, 24, 16)
	if err != nil {
		return err
	}
	m, err := insitubits.NewUniformBins(0, 130, 96)
	if err != nil {
		return err
	}
	var raw [][]float64
	var indices []*insitubits.Index
	for t := 0; t < 16; t++ {
		data := h.Step(2)[0].Data
		raw = append(raw, data)
		indices = append(indices, insitubits.BuildIndex(data, m))
	}

	// Claim 1 (§2.2): bitmaps much smaller than the data.
	maxRatio := 0.0
	for _, x := range indices {
		if r := float64(x.SizeBytes()) / float64(8*x.N()); r > maxRatio {
			maxRatio = r
		}
	}
	check("bitmap size < 30% of raw data on every step", maxRatio < 0.30,
		fmt.Sprintf("worst %.1f%%", 100*maxRatio))

	// Claim 2 (§3.2): every metric identical between bitmap and data paths.
	worst := 0.0
	for i := 1; i < len(raw); i++ {
		pb := insitubits.PairFromBitmaps(indices[i], indices[0])
		pd := insitubits.PairFromData(raw[i], raw[0], m, m)
		for _, d := range []float64{
			pb.EntropyA - pd.EntropyA, pb.MI - pd.MI, pb.CondEntropyAB - pd.CondEntropyAB,
			insitubits.EMDSpatialBitmaps(indices[i], indices[0]) - insitubits.EMDSpatialData(raw[i], raw[0], m),
			insitubits.EMDCount(indices[i].Histogram(), indices[0].Histogram()) -
				insitubits.EMDCount(insitubits.Histogram(raw[i], m), insitubits.Histogram(raw[0], m)),
		} {
			if a := math.Abs(d); a > worst {
				worst = a
			}
		}
	}
	check("entropy/MI/cond-entropy/EMD identical on both paths", worst < 1e-9,
		fmt.Sprintf("max |diff| %.2e", worst))

	// Claim 3 (§3): time-step selection picks identical steps on both paths.
	var sumsB, sumsD []insitubits.Summary
	for i := range raw {
		sumsB = append(sumsB, insitubits.NewBitmapSummary(indices[i]))
		sumsD = append(sumsD, insitubits.NewDataSummary(raw[i], m))
	}
	sameSel := true
	for _, metric := range []insitubits.SelectionMetric{
		insitubits.MetricConditionalEntropy, insitubits.MetricEMDCount, insitubits.MetricEMDSpatial,
	} {
		rb, err := insitubits.SelectTimeSteps(sumsB, 5, insitubits.FixedLengthPartitioning{}, metric)
		if err != nil {
			return err
		}
		rd, err := insitubits.SelectTimeSteps(sumsD, 5, insitubits.FixedLengthPartitioning{}, metric)
		if err != nil {
			return err
		}
		for i := range rb.Selected {
			if rb.Selected[i] != rd.Selected[i] {
				sameSel = false
			}
		}
	}
	check("selection identical on both paths (all 3 metrics)", sameSel, "5 of 16 steps")

	// Claim 4 (§4): mining results identical across all three code paths.
	d, err := insitubits.GenerateOcean(48, 48, 8, 3)
	if err != nil {
		return err
	}
	temp, _ := d.VarCurveOrder("temperature")
	salt, _ := d.VarCurveOrder("salinity")
	tlo, thi := insitubits.MinMax(temp)
	slo, shi := insitubits.MinMax(salt)
	mt, _ := insitubits.NewUniformBins(tlo, thi+1e-9, 32)
	ms, _ := insitubits.NewUniformBins(slo, shi+1e-9, 32)
	xt := insitubits.BuildIndex(temp, mt)
	xs := insitubits.BuildIndex(salt, ms)
	cfg := insitubits.MiningConfig{UnitSize: 256, ValueThreshold: 0.002, SpatialThreshold: 0.03}
	flat, err := insitubits.Mine(xt, xs, cfg)
	if err != nil {
		return err
	}
	par, err := insitubits.MineParallel(xt, xs, cfg, 4)
	if err != nil {
		return err
	}
	full, err := insitubits.MineFullData(temp, salt, mt, ms, cfg)
	if err != nil {
		return err
	}
	check("mining identical: serial = parallel = full-data",
		reflect.DeepEqual(flat, par) && reflect.DeepEqual(flat, full) && len(flat) > 0,
		fmt.Sprintf("%d findings each", len(flat)))

	// Claim 5 (Algorithm 1): streaming build = dense = two-phase, bit-exact.
	same := true
	lazy := insitubits.BuildIndex(raw[3], m)
	dense := insitubits.BuildIndexAlgorithm1(raw[3], m)
	two := insitubits.BuildIndexTwoPhase(raw[3], m)
	for b := 0; b < lazy.Bins(); b++ {
		if !lazy.Bitmap(b).Equal(dense.Bitmap(b)) || !lazy.Bitmap(b).Equal(two.Bitmap(b)) {
			same = false
		}
	}
	check("Algorithm 1 variants produce bit-identical indices", same,
		fmt.Sprintf("%d bins compared", lazy.Bins()))

	// Claim 6: aggregation bounds always contain the truth.
	bounds := true
	trueSum := 0.0
	for _, v := range raw[0] {
		trueSum += v
	}
	agg, err := insitubits.SubsetSum(context.Background(), indices[0], insitubits.QuerySubset{})
	if err != nil {
		return err
	}
	if trueSum < agg.Lo || trueSum > agg.Hi {
		bounds = false
	}
	check("aggregation bounds contain the discarded data's true sum", bounds,
		fmt.Sprintf("sum %.1f in [%.1f, %.1f]", trueSum, agg.Lo, agg.Hi))

	if failures > 0 {
		return fmt.Errorf("%d claim(s) failed", failures)
	}
	row("all claims hold")
	return nil
}
