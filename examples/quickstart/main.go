// Quickstart: build a bitmap index over an array, query it, and compute
// the paper's analysis metrics twice — from the raw data and from the
// bitmaps alone — to see that they agree exactly while the bitmaps are a
// fraction of the size.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"insitubits"
)

func main() {
	// A synthetic "simulation output": a smooth wave with a hot anomaly.
	const n = 100000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		x := float64(i) / n
		a[i] = 50 + 20*math.Sin(8*math.Pi*x)
		b[i] = 48 + 20*math.Sin(8*math.Pi*x+0.4) // correlated with a
		if i > n/2 && i < n/2+5000 {
			a[i] += 30 // the anomaly
		}
	}

	// One binning drives everything; both variables share the value range.
	mapper, err := insitubits.NewUniformBins(0, 110, 64)
	if err != nil {
		log.Fatal(err)
	}

	// Build compressed bitmap indices (this is the paper's Algorithm 1,
	// streaming with in-place WAH compression).
	xa := insitubits.BuildIndex(a, mapper)
	xb := insitubits.BuildIndex(b, mapper)
	fmt.Printf("raw array:      %8d bytes\n", 8*n)
	fmt.Printf("bitmap index:   %8d bytes (%.1f%% of raw, %d bins)\n",
		xa.SizeBytes(), 100*float64(xa.SizeBytes())/float64(8*n), xa.Bins())

	// Value query on the compressed form: where is the anomaly (>85)?
	hot, err := insitubits.SubsetBits(context.Background(), xa, insitubits.QuerySubset{ValueLo: 85, ValueHi: 200})
	if err != nil {
		log.Fatal(err)
	}
	first, last := -1, -1
	hot.Iterate(func(pos int) bool {
		if first < 0 {
			first = pos
		}
		last = pos
		return true
	})
	fmt.Printf("query value>85: %d elements, span [%d, %d]\n", hot.Count(), first, last)

	// The paper's claim: analysis metrics from bitmaps equal the full-data
	// ones exactly (same binning), because binning is the only lossy step
	// and both paths share it.
	fromData := insitubits.PairFromData(a, b, mapper, mapper)
	fromBits := insitubits.PairFromBitmaps(xa, xb)
	fmt.Printf("entropy H(A):        data %.6f | bitmaps %.6f\n", fromData.EntropyA, fromBits.EntropyA)
	fmt.Printf("mutual info I(A;B):  data %.6f | bitmaps %.6f\n", fromData.MI, fromBits.MI)
	fmt.Printf("cond. ent. H(A|B):   data %.6f | bitmaps %.6f\n", fromData.CondEntropyAB, fromBits.CondEntropyAB)

	emdData := insitubits.EMDSpatialData(a, b, mapper)
	emdBits := insitubits.EMDSpatialBitmaps(xa, xb)
	fmt.Printf("spatial EMD:         data %.0f | bitmaps %.0f\n", emdData, emdBits)

	if fromData.MI != fromBits.MI || emdData != emdBits {
		log.Fatal("bitmap metrics diverged from full data — this should be impossible")
	}
	fmt.Println("all bitmap-path metrics match the full-data path exactly")
}
