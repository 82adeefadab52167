package main

import (
	"fmt"
	"math"
	"time"

	"insitubits"
)

// miningSetup prepares curve-ordered temperature/salinity plus their
// indices for one ocean grid.
type miningSetup struct {
	temp, salt []float64
	mt, ms     insitubits.Mapper
	xt, xs     *insitubits.Index
}

func prepareOcean(lon, lat, depth int, seed int64, bins int) (*miningSetup, error) {
	d, err := insitubits.GenerateOcean(lon, lat, depth, seed)
	if err != nil {
		return nil, err
	}
	temp, err := d.VarCurveOrder("temperature")
	if err != nil {
		return nil, err
	}
	salt, err := d.VarCurveOrder("salinity")
	if err != nil {
		return nil, err
	}
	tlo, thi := insitubits.MinMax(temp)
	slo, shi := insitubits.MinMax(salt)
	mt, err := insitubits.NewUniformBins(tlo, thi+1e-9, bins)
	if err != nil {
		return nil, err
	}
	ms, err := insitubits.NewUniformBins(slo, shi+1e-9, bins)
	if err != nil {
		return nil, err
	}
	return &miningSetup{
		temp: temp, salt: salt, mt: mt, ms: ms,
		xt: insitubits.BuildIndex(temp, mt),
		xs: insitubits.BuildIndex(salt, ms),
	}, nil
}

// figMiningTime renders Figure 14: correlation-mining time, bitmaps vs full
// data, over growing dataset sizes.
func figMiningTime() error {
	type size struct{ lon, lat, depth int }
	sizes := []size{{64, 64, 16}, {128, 64, 16}, {128, 128, 16}, {256, 128, 16}, {256, 256, 16}}
	if *quick {
		sizes = sizes[:2]
	}
	header("Figure 14 — correlation mining (temperature x salinity), bitmaps vs full data",
		"load time modelled at disk bandwidth (index file vs raw arrays); mining measured; paper sizes 1.4-11.2 GB/variable, here MB-scale")
	row("%-12s %9s | %9s %9s %9s | %9s %9s %9s | %8s %9s",
		"grid", "raw(MB)", "load-b", "mine-b", "total-b", "load-f", "mine-f", "total-f", "speedup", "findings")
	for _, s := range sizes {
		setup, err := prepareOcean(s.lon, s.lat, s.depth, 7, 48)
		if err != nil {
			return err
		}
		n := len(setup.temp)
		// T tuned so the planted currents (≈4% of cells) survive the value
		// filter while the independent background is pruned; T' keeps only
		// clearly correlated spatial units.
		cfg := insitubits.MiningConfig{
			UnitSize:         512,
			ValueThreshold:   0.002,
			SpatialThreshold: 0.05,
		}
		// Bitmaps: load both index files (modelled), then Algorithm 2.
		loadBytesB := insitubits.IndexFileSize(setup.xt) + insitubits.IndexFileSize(setup.xs)
		t0 := time.Now()
		fb, err := insitubits.Mine(setup.xt, setup.xs, cfg)
		if err != nil {
			return err
		}
		mineB := time.Since(t0)
		// Full data: load both raw arrays (modelled), then exhaustive scan.
		loadBytesF := insitubits.RawFileSize(n) * 2
		t1 := time.Now()
		ff, err := insitubits.MineFullData(setup.temp, setup.salt, setup.mt, setup.ms, cfg)
		if err != nil {
			return err
		}
		mineF := time.Since(t1)
		if len(fb) != len(ff) {
			return fmt.Errorf("grid %v: bitmaps found %d, full data %d", s, len(fb), len(ff))
		}
		disk := insitubits.Xeon.DiskMBps
		loadTB := time.Duration(float64(loadBytesB) / (disk * 1e6) * float64(time.Second))
		loadTF := time.Duration(float64(loadBytesF) / (disk * 1e6) * float64(time.Second))
		totalB := loadTB + mineB
		totalF := loadTF + mineF
		row("%-12s %9.1f | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f | %7.2fx %9d",
			fmt.Sprintf("%dx%dx%d", s.lon, s.lat, s.depth), mb(int64(8*n)),
			secs(loadTB), secs(mineB), secs(totalB),
			secs(loadTF), secs(mineF), secs(totalF),
			float64(totalF)/float64(totalB), len(fb))
	}
	row("(paper: 3.83x-4.91x, growing with data size; zero accuracy difference)")
	return nil
}

// figMiningAccuracy renders Figure 17: mutual information over 60 value/
// spatial subsets, exact (= bitmaps) vs samples at 50/30/15/5 percent.
func figMiningAccuracy() error {
	// Per-subset MI estimation needs enough samples per subset for the
	// sampling baseline to be meaningful at all (the paper's subsets hold
	// tens of millions of elements each), so this figure uses the larger
	// grid and coarse binning.
	lon, lat, depth, bins := 128, 128, 32, 16
	if *quick {
		lon, lat, depth = 64, 64, 16
	}
	setup, err := prepareOcean(lon, lat, depth, 11, bins)
	if err != nil {
		return err
	}
	n := len(setup.temp)
	const subsets = 60
	unit := (n + subsets - 1) / subsets
	header("Figure 17 — accuracy loss for correlation mining (POP substitute)",
		fmt.Sprintf("MI(temperature, salinity) within %d spatial subsets of %d cells (%d bins); CFP of relative errors", subsets, unit, bins))

	// Exact per-subset MI, from raw data and from bitmaps (must agree).
	exact := exactUnitMI(setup, unit)
	fromBitmaps := unitMIBitmaps(setup, unit)
	bitmapErrs := 0
	for u := range exact {
		if math.Abs(fromBitmaps[u]-exact[u]) > 1e-9 {
			bitmapErrs++
		}
	}
	row("bitmaps: %d/%d subsets differ from exact (must be 0) -> mean loss 0.00%%", bitmapErrs, len(exact))
	if bitmapErrs > 0 {
		return fmt.Errorf("bitmap MI diverged from exact in %d subsets", bitmapErrs)
	}

	for _, pct := range []float64{50, 30, 15, 5} {
		smp, err := insitubits.NewRandomSampler(n, pct, 23)
		if err != nil {
			return err
		}
		st, err := smp.Sample(setup.temp)
		if err != nil {
			return err
		}
		ss, err := smp.Sample(setup.salt)
		if err != nil {
			return err
		}
		pos := smp.Positions()
		approx := make([]float64, len(exact))
		// Group sampled elements by subset and compute subset MI.
		start := 0
		for u := range approx {
			lo, hi := u*unit, (u+1)*unit
			if hi > n {
				hi = n
			}
			end := start
			for end < len(pos) && pos[end] < hi {
				end++
			}
			approx[u] = subsetMI(st[start:end], ss[start:end], setup.mt, setup.ms)
			start = end
			_ = lo
		}
		errs, err := relErrs(exact, approx)
		if err != nil {
			return err
		}
		cfp := insitubits.NewCFP(errs)
		row("sample-%2.0f%%: mean loss %6.2f%%   CFP quartiles: p25=%.4f p50=%.4f p75=%.4f p95=%.4f",
			pct, 100*cfp.Mean(), cfp.Quantile(0.25), cfp.Quantile(0.5), cfp.Quantile(0.75), cfp.Quantile(0.95))
	}
	row("(paper: 3.14%% / 7.56%% / 10.15%% / 17.03%% mean loss at 50/30/15/5%%; bitmaps 0%%)")
	return nil
}

// exactUnitMI computes the exact per-unit MI from the raw arrays.
func exactUnitMI(s *miningSetup, unit int) []float64 {
	n := len(s.temp)
	nUnits := (n + unit - 1) / unit
	out := make([]float64, nUnits)
	for u := 0; u < nUnits; u++ {
		lo, hi := u*unit, (u+1)*unit
		if hi > n {
			hi = n
		}
		out[u] = subsetMI(s.temp[lo:hi], s.salt[lo:hi], s.mt, s.ms)
	}
	return out
}

// subsetMI is MI between two value slices under fixed global binning.
func subsetMI(a, b []float64, ma, mb insitubits.Mapper) float64 {
	if len(a) == 0 {
		return 0
	}
	joint := insitubits.JointHistogram(a, b, ma, mb)
	return insitubits.MutualInformation(joint, insitubits.Histogram(a, ma), insitubits.Histogram(b, mb), len(a))
}

// unitMIBitmaps computes every subset's MI purely from the indices: both
// are decoded into bin ids once, and each unit tallies its joint
// distribution and marginals from them.
func unitMIBitmaps(s *miningSetup, unit int) []float64 {
	n := s.xt.N()
	ida, idb := insitubits.DecodeBinIDs(s.xt, 1), insitubits.DecodeBinIDs(s.xs, 1)
	out := make([]float64, (n+unit-1)/unit)
	for u := range out {
		lo, hi := u*unit, min((u+1)*unit, n)
		joint := make([][]int, s.xt.Bins())
		for i := range joint {
			joint[i] = make([]int, s.xs.Bins())
		}
		ha, hb := make([]int, s.xt.Bins()), make([]int, s.xs.Bins())
		for k := lo; k < hi; k++ {
			a, b := ida.At(k), idb.At(k)
			joint[a][b]++
			ha[a]++
			hb[b]++
		}
		out[u] = insitubits.MutualInformation(joint, ha, hb, hi-lo)
	}
	return out
}

func relErrs(exact, approx []float64) ([]float64, error) {
	if len(exact) != len(approx) {
		return nil, fmt.Errorf("length mismatch %d vs %d", len(exact), len(approx))
	}
	out := make([]float64, len(exact))
	for i := range exact {
		d := math.Abs(exact[i] - approx[i])
		if e := math.Abs(exact[i]); e > 1e-12 {
			out[i] = d / e
		} else {
			out[i] = d
		}
	}
	return out, nil
}
