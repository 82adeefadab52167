// Query analytics on discarded data: after the in-situ pipeline has kept
// only bitmaps, answer value/spatial subset queries, approximate aggregates
// with rigorous bounds, interactive correlation queries, incomplete-data
// aggregation, and subgroup discovery — all without the original arrays
// (the paper's §2.2/§4.1 companion analyses).
//
//	go run ./examples/query-analytics
package main

import (
	"context"
	"fmt"
	"log"

	"insitubits"
)

func main() {
	// Pretend these came back from disk: ocean temperature/salinity indices.
	d, err := insitubits.GenerateOcean(64, 64, 16, 123)
	if err != nil {
		log.Fatal(err)
	}
	temp, _ := d.VarCurveOrder("temperature")
	salt, _ := d.VarCurveOrder("salinity")
	oxy, _ := d.VarCurveOrder("oxygen")
	tlo, thi := insitubits.MinMax(temp)
	slo, shi := insitubits.MinMax(salt)
	olo, ohi := insitubits.MinMax(oxy)
	mt, _ := insitubits.NewUniformBins(tlo, thi+1e-9, 64)
	ms, _ := insitubits.NewUniformBins(slo, shi+1e-9, 64)
	mo, _ := insitubits.NewUniformBins(olo, ohi+1e-9, 64)
	xt := insitubits.BuildIndex(temp, mt)
	xs := insitubits.BuildIndex(salt, ms)
	xo := insitubits.BuildIndex(oxy, mo)
	n := xt.N()
	fmt.Printf("indices only from here on (%d cells; raw data conceptually discarded)\n\n", n)

	// 1. Subset counting is exact.
	warm := insitubits.QuerySubset{ValueLo: 15, ValueHi: 100}
	c, err := insitubits.SubsetCount(context.Background(), xt, warm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cells with temperature >= 15 C: %d (%.1f%%)\n", c, 100*float64(c)/float64(n))

	// 2. Aggregation is approximate but rigorously bounded.
	upper := insitubits.QuerySubset{SpatialLo: 0, SpatialHi: n / 4} // first quarter of the Z-curve
	mean, err := insitubits.SubsetMean(context.Background(), xt, upper)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean temperature over first curve quarter: %.3f C (true value in [%.3f, %.3f])\n",
		mean.Estimate, mean.Lo, mean.Hi)
	min, max, err := insitubits.SubsetMinMax(context.Background(), xt, insitubits.QuerySubset{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("temperature extremes: min in [%.2f, %.2f], max in [%.2f, %.2f]\n\n",
		min.Lo, min.Hi, max.Lo, max.Hi)

	// 3. Interactive correlation query (§4.1): how coupled are T and S
	//    inside a planted current vs a random block?
	reg := d.Planted[0]
	// Convert the region's first cells into a curve range by probing.
	cells := d.PlantedCurveCells()
	lo, hi := -1, -1
	for i, in := range cells {
		if in {
			if lo < 0 {
				lo = i
			}
			hi = i + 1
		}
	}
	sub := insitubits.QuerySubset{SpatialLo: lo, SpatialHi: hi}
	inCur, err := insitubits.CorrelationQuery(context.Background(), xt, xs, sub, sub)
	if err != nil {
		log.Fatal(err)
	}
	ref := insitubits.QuerySubset{SpatialLo: 0, SpatialHi: hi - lo}
	outCur, err := insitubits.CorrelationQuery(context.Background(), xt, xs, ref, ref)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("correlation query I(T;S): planted span %.3f bits vs reference span %.3f bits\n",
		inCur.MI, outCur.MI)
	_ = reg

	// 4. Incomplete data: mask out a sensor dropout and aggregate anyway.
	validIdx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i < n/3 || i >= n/3+n/10 { // a contiguous dropout of 10%
			validIdx = append(validIdx, i)
		}
	}
	masked, err := insitubits.NewMaskedIndex(xt, insitubits.FromIndices(n, validIdx))
	if err != nil {
		log.Fatal(err)
	}
	mAgg, err := masked.Sum(context.Background(), insitubits.QuerySubset{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with %d cells missing: mean over valid = %.3f C (bounds [%.3f, %.3f])\n\n",
		masked.Missing(), mAgg.Estimate/float64(mAgg.Count), mAgg.Lo/float64(mAgg.Count), mAgg.Hi/float64(mAgg.Count))

	// 5. Subgroup discovery: under which (T, S) conditions is oxygen
	//    unusually low? (Physically: warm saline water holds less oxygen.)
	sgs, err := insitubits.DiscoverSubgroups([]*insitubits.Index{xt, xs}, xo, 3)
	if err != nil {
		log.Fatal(err)
	}
	globalMean, _ := insitubits.SubsetMean(context.Background(), xo, insitubits.QuerySubset{})
	fmt.Printf("subgroups with anomalous oxygen (global mean %.3f):\n", globalMean.Estimate)
	for i, sg := range sgs {
		fmt.Printf("  %d. %s  -> mean %.3f over %d cells (quality %.3f)\n",
			i+1, insitubits.DescribeSubgroup(sg, []*insitubits.Index{xt, xs}, []string{"temperature", "salinity"}),
			sg.Mean, sg.Count, sg.Quality)
	}
}
