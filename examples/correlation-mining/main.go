// Correlation mining on a POP-like ocean dataset: generate multi-variable
// ocean state with planted temperature/salinity "currents", index both
// variables in Z-order, and run the paper's Algorithm 2 to rediscover the
// planted regions — comparing the bitmap, parallel bitmap and full-data
// paths.
//
//	go run ./examples/correlation-mining
package main

import (
	"fmt"
	"log"
	"time"

	"insitubits"
)

func main() {
	const lon, lat, depth = 128, 128, 16
	d, err := insitubits.GenerateOcean(lon, lat, depth, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ocean state %dx%dx%d: variables %v\n", lon, lat, depth, d.Names)
	fmt.Printf("planted correlated regions: %d (%.1f%% of cells)\n",
		len(d.Planted), 100*d.PlantedFraction())

	// Z-order layout makes each spatial unit a contiguous bit range.
	temp, err := d.VarCurveOrder("temperature")
	if err != nil {
		log.Fatal(err)
	}
	salt, err := d.VarCurveOrder("salinity")
	if err != nil {
		log.Fatal(err)
	}
	tlo, thi := insitubits.MinMax(temp)
	slo, shi := insitubits.MinMax(salt)
	mt, err := insitubits.NewUniformBins(tlo, thi+1e-9, 48)
	if err != nil {
		log.Fatal(err)
	}
	ms, err := insitubits.NewUniformBins(slo, shi+1e-9, 48)
	if err != nil {
		log.Fatal(err)
	}
	xt := insitubits.BuildIndex(temp, mt)
	xs := insitubits.BuildIndex(salt, ms)
	fmt.Printf("indices: %.1f%% and %.1f%% of raw size\n",
		100*float64(xt.SizeBytes())/float64(8*len(temp)),
		100*float64(xs.SizeBytes())/float64(8*len(salt)))

	cfg := insitubits.MiningConfig{
		UnitSize:         512, // 8x8x8 Z-order blocks
		ValueThreshold:   0.002,
		SpatialThreshold: 0.05,
	}

	t0 := time.Now()
	flat, err := insitubits.Mine(xt, xs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	tFlat := time.Since(t0)

	t1 := time.Now()
	par, err := insitubits.MineParallel(xt, xs, cfg, 4)
	if err != nil {
		log.Fatal(err)
	}
	tPar := time.Since(t1)

	t2 := time.Now()
	full, err := insitubits.MineFullData(temp, salt, mt, ms, cfg)
	if err != nil {
		log.Fatal(err)
	}
	tFull := time.Since(t2)

	fmt.Printf("findings: bitmaps %d (%.1fms) | 4 workers %d (%.1fms) | full-data %d (%.1fms)\n",
		len(flat), 1e3*tFlat.Seconds(), len(par), 1e3*tPar.Seconds(), len(full), 1e3*tFull.Seconds())
	if len(flat) != len(full) || len(flat) != len(par) {
		log.Fatal("paths disagree — should be identical")
	}

	// Score against ground truth: what fraction of findings fall in the
	// planted regions, and how much of the planted area was rediscovered?
	planted := d.PlantedCurveCells()
	inPlanted, coveredCells := 0, 0
	covered := make([]bool, len(planted))
	for _, f := range flat {
		overlap := 0
		for p := f.Begin; p < f.End; p++ {
			if planted[p] {
				overlap++
			}
			covered[p] = true
		}
		// A unit straddling the region boundary still detects it; count a
		// finding as correct when at least a quarter of its cells are
		// planted.
		if overlap*4 >= f.End-f.Begin {
			inPlanted++
		}
	}
	plantedTotal := 0
	for i, p := range planted {
		if p {
			plantedTotal++
			if covered[i] {
				coveredCells++
			}
		}
	}
	fmt.Printf("precision: %.0f%% of findings inside planted currents\n",
		100*float64(inPlanted)/float64(len(flat)))
	fmt.Printf("recall:    %.0f%% of planted cells covered by findings\n",
		100*float64(coveredCells)/float64(plantedTotal))

	// Merge adjacent units into contiguous regions and show the strongest,
	// decoded back to grid coordinates.
	regions := insitubits.MergeFindings(flat)
	best := regions[0]
	for _, reg := range regions {
		if reg.MaxMI > best.MaxMI {
			best = reg
		}
	}
	layout := d.Layout()
	row := layout.RowMajor(best.Begin)
	x := row % lon
	y := (row / lon) % lat
	z := row / (lon * lat)
	fmt.Printf("%d findings merge into %d contiguous regions\n", len(flat), len(regions))
	fmt.Printf("strongest region: bins (T=%d, S=%d), %d units over curve [%d,%d), near grid (%d,%d,%d), max local MI %.3f\n",
		best.BinA, best.BinB, best.Units, best.Begin, best.End, x, y, z, best.MaxMI)
}
