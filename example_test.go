package insitubits_test

import (
	"context"
	"fmt"

	"insitubits"
)

// The paper's Figure 1 dataset: 8 elements, 4 distinct values, indexed into
// one bitvector per value.
func ExampleBuildIndex() {
	data := []float64{4, 1, 2, 2, 3, 4, 3, 1}
	mapper, err := insitubits.NewExplicitBins([]float64{1, 2, 3, 4, 5})
	if err != nil {
		panic(err)
	}
	x := insitubits.BuildIndex(data, mapper)
	for b := 0; b < x.Bins(); b++ {
		fmt.Printf("e%d (=%g): count %d\n", b, mapper.Low(b), x.Count(b))
	}
	fmt.Printf("compressed size: %d bytes\n", x.SizeBytes())
	// Output:
	// e0 (=1): count 2
	// e1 (=2): count 2
	// e2 (=3): count 2
	// e3 (=4): count 2
	// compressed size: 16 bytes
}

// Metrics from bitmaps equal the full-data metrics exactly (the paper's
// no-accuracy-loss property), because both paths share the binning.
func ExamplePairFromBitmaps() {
	a := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	b := []float64{1, 1, 2, 2, 3, 3, 4, 4} // identical: I(A;B) = H(A)
	m, err := insitubits.NewUniformBins(0, 5, 5)
	if err != nil {
		panic(err)
	}
	xa := insitubits.BuildIndex(a, m)
	xb := insitubits.BuildIndex(b, m)
	fromBits := insitubits.PairFromBitmaps(xa, xb)
	fromData := insitubits.PairFromData(a, b, m, m)
	fmt.Printf("H(A) = %.0f bits (bitmaps) = %.0f bits (data)\n", fromBits.EntropyA, fromData.EntropyA)
	fmt.Printf("I(A;B) = %.0f bits, H(A|B) = %.0f bits\n", fromBits.MI, fromBits.CondEntropyAB)
	// Output:
	// H(A) = 2 bits (bitmaps) = 2 bits (data)
	// I(A;B) = 2 bits, H(A|B) = 0 bits
}

// Compressed bitwise operations never decompress the operands.
func ExampleBitVector() {
	a := insitubits.FromIndices(100, []int{5, 50, 95})
	b := insitubits.FromIndices(100, []int{5, 60, 95})
	fmt.Println("and:", a.And(b).Count())
	fmt.Println("or: ", a.Or(b).Count())
	fmt.Println("xor:", a.XorCount(b))
	fmt.Println("range [0,50):", a.CountRange(0, 50))
	// Output:
	// and: 2
	// or:  4
	// xor: 2
	// range [0,50): 1
}

// Approximate aggregation returns rigorous bounds: the true sum of the
// discarded data is guaranteed to lie inside [Lo, Hi].
func ExampleSubsetSum() {
	data := []float64{0.5, 1.5, 2.5, 3.5, 4.5}
	m, err := insitubits.NewUniformBins(0, 5, 5)
	if err != nil {
		panic(err)
	}
	x := insitubits.BuildIndex(data, m)
	agg, err := insitubits.SubsetSum(context.Background(), x, insitubits.QuerySubset{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("count=%d estimate=%.1f bounds=[%.1f, %.1f]\n", agg.Count, agg.Estimate, agg.Lo, agg.Hi)
	// Output:
	// count=5 estimate=12.5 bounds=[10.0, 15.0]
}

// A value query on the compressed index.
func ExampleSubsetBits() {
	data := []float64{0.5, 1.5, 2.5, 3.5, 4.5, 1.4}
	m, err := insitubits.NewUniformBins(0, 5, 5)
	if err != nil {
		panic(err)
	}
	x := insitubits.BuildIndex(data, m)
	// bins [1,2) and [2,3)
	hits, err := insitubits.SubsetBits(context.Background(), x, insitubits.QuerySubset{ValueLo: 1, ValueHi: 3})
	if err != nil {
		panic(err)
	}
	fmt.Println("matches:", hits.Count())
	hits.Iterate(func(pos int) bool {
		fmt.Println("  element", pos)
		return true
	})
	// Output:
	// matches: 3
	//   element 1
	//   element 2
	//   element 5
}

// Correlation mining (Algorithm 2) on a deterministic planted pattern.
func ExampleMine() {
	// Two variables agreeing on the first half of the domain only.
	n := 2048
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i%8) + 0.5
		if i < n/2 {
			b[i] = a[i] // correlated half
		} else {
			// Hash-scrambled: independent of a's bin pattern.
			b[i] = float64(int(uint32(i)*2654435761>>7)%8) + 0.5
		}
	}
	m, err := insitubits.NewUniformBins(0, 8, 8)
	if err != nil {
		panic(err)
	}
	findings, err := insitubits.Mine(
		insitubits.BuildIndex(a, m), insitubits.BuildIndex(b, m),
		insitubits.MiningConfig{UnitSize: 256, ValueThreshold: 0.01, SpatialThreshold: 0.1},
	)
	if err != nil {
		panic(err)
	}
	regions := insitubits.MergeFindings(findings)
	inFirstHalf := 0
	for _, r := range regions {
		if r.End <= n/2 {
			inFirstHalf++
		}
	}
	fmt.Printf("%d regions, %d inside the correlated half\n", len(regions), inFirstHalf)
	// Output:
	// 8 regions, 8 inside the correlated half
}

// Greedy time-step selection keeps the steps least correlated with the
// previously kept one.
func ExampleSelectTimeSteps() {
	m, err := insitubits.NewUniformBins(0, 10, 10)
	if err != nil {
		panic(err)
	}
	var steps []insitubits.Summary
	for t := 0; t < 9; t++ {
		data := make([]float64, 310)
		for i := range data {
			switch t {
			case 4: // an abrupt event in the first interval
				data[i] = float64((i * 7) % 10)
			case 7: // a second event with a different spatial structure
				data[i] = float64((i / 31) % 10)
			default:
				data[i] = 5
			}
		}
		steps = append(steps, insitubits.NewBitmapSummary(insitubits.BuildIndex(data, m)))
	}
	res, err := insitubits.SelectTimeSteps(steps, 3, insitubits.MetricConditionalEntropy)
	if err != nil {
		panic(err)
	}
	fmt.Println("kept:", res.Selected)
	// Output:
	// kept: [0 4 7]
}

// Quantiles of discarded data, bounded by bin edges.
func ExampleSubsetQuantile() {
	data := make([]float64, 1000)
	for i := range data {
		data[i] = float64(i) / 100 // 0.00 .. 9.99
	}
	m, err := insitubits.NewUniformBins(0, 10, 20)
	if err != nil {
		panic(err)
	}
	x := insitubits.BuildIndex(data, m)
	med, err := insitubits.SubsetQuantile(context.Background(), x, insitubits.QuerySubset{}, 0.5)
	if err != nil {
		panic(err)
	}
	fmt.Printf("median in [%.1f, %.1f]\n", med.Lo, med.Hi)
	// Output:
	// median in [4.5, 5.0]
}
