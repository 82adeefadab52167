// Package metrics implements the information-theoretic correlation metrics
// of the paper's §3.1 — Shannon entropy, mutual information, conditional
// entropy, and the Earth Mover's Distance in both its count and spatial
// variants — each computable two ways: from raw data arrays (the "full data"
// baseline) and from bitmap indices (the paper's method). Because both paths
// bin identically, they produce *identical* results; the bitmap path is just
// cheaper, replacing full-array scans with cached histograms and, for the
// metrics that pair elements up (joint distributions, spatial differences),
// one pass over the two indexes decoded into bin ids.
package metrics

import (
	"fmt"
	"math"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/index"
	"insitubits/internal/sim"
)

// Histogram counts elements per bin by scanning the data (full-data path).
// The bitmap path gets the same numbers for free from Index.Histogram.
func Histogram(data []float64, m binning.Mapper) []int {
	h := make([]int, m.Bins())
	for _, v := range data {
		h[m.Bin(v)]++
	}
	return h
}

// JointHistogram scans two equally long arrays once and counts co-occurring
// bin pairs: joint[i][j] = |{k : a_k ∈ bin i of ma, b_k ∈ bin j of mb}|.
func JointHistogram(a, b []float64, ma, mb binning.Mapper) [][]int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: joint histogram over arrays of length %d and %d", len(a), len(b)))
	}
	joint := make([][]int, ma.Bins())
	cells := make([]int, ma.Bins()*mb.Bins())
	for i := range joint {
		joint[i], cells = cells[:mb.Bins()], cells[mb.Bins():]
	}
	for k := range a {
		joint[ma.Bin(a[k])][mb.Bin(b[k])]++
	}
	return joint
}

// JointHistogramBitmaps produces the same joint distribution as
// JointHistogram from the two indices alone (the raw data may already be
// discarded). It decodes each index into per-element bin ids in one pass —
// O(n) total regardless of bin count — and tallies the pairs, where the
// paper's Figure 5 ANDs every bin pair: bins² × compressed words.
//
// It runs on one goroutine and accepts any index of up to index.MaxIDBins
// bins, including one read from an untrusted file whose bins do not
// partition its elements: a position no bin covers counts as bin 0, one
// several bins claim as the highest of them.
func JointHistogramBitmaps(xa, xb *index.Index) [][]int {
	if xa.N() != xb.N() {
		panic(fmt.Sprintf("metrics: joint histogram over indices of %d and %d elements", xa.N(), xb.N()))
	}
	return JointFromIDs(index.DecodeBinIDs(xa, 1), index.DecodeBinIDs(xb, 1), 1)
}

// JointFromIDs is the joint histogram of two indexes in decoded form:
// joint[i][j] = |{k : a_k = i, b_k = j}|. The pairs are tallied over one
// element range per worker into flat per-worker tables, which are then
// summed, so the integers do not depend on nWorkers. A nil operand is an
// index of more than index.MaxIDBins bins, whose joint table would not fit
// in memory anyway.
func JointFromIDs(a, b *index.BinIDs, nWorkers int) [][]int {
	if a == nil || b == nil {
		panic(fmt.Sprintf("metrics: joint histogram over an index of more than %d bins", index.MaxIDBins))
	}
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("metrics: joint histogram over indices of %d and %d elements", a.Len(), b.Len()))
	}
	var cells []int
	switch {
	case a.U8 != nil && b.U8 != nil:
		cells = tally(a.U8, b.U8, a.Bins, b.Bins, nWorkers)
	case a.U8 != nil:
		cells = tally(a.U8, b.U16, a.Bins, b.Bins, nWorkers)
	case b.U8 != nil:
		cells = tally(a.U16, b.U8, a.Bins, b.Bins, nWorkers)
	default:
		cells = tally(a.U16, b.U16, a.Bins, b.Bins, nWorkers)
	}
	joint := make([][]int, a.Bins)
	for i := range joint {
		joint[i] = cells[i*b.Bins : (i+1)*b.Bins]
	}
	return joint
}

// tally counts the (a[k], b[k]) pairs into a flat na×nb table.
func tally[A, B bitvec.ID](a []A, b []B, na, nb, nWorkers int) []int {
	n, size := len(a), na*nb
	nWorkers = max(1, min(nWorkers, n))
	cells := make([]int, nWorkers*size) // one flat table per worker
	sim.ParallelEach(nWorkers, func(w int) {
		mine := cells[w*size : (w+1)*size]
		from, to := w*n/nWorkers, (w+1)*n/nWorkers
		ib := b[from:to]
		for k, i := range a[from:to] {
			mine[int(i)*nb+int(ib[k])]++
		}
	})
	total := cells[:size]
	for w := 1; w < nWorkers; w++ {
		for c, v := range cells[w*size : (w+1)*size] {
			total[c] += v
		}
	}
	return total
}

// Entropy returns Shannon's entropy H = -Σ p·log2(p) in bits over a count
// histogram with n total elements (Equation 4).
func Entropy(counts []int, n int) float64 {
	if n <= 0 {
		return 0
	}
	h := 0.0
	inv := 1.0 / float64(n)
	for _, c := range counts {
		if c > 0 {
			p := float64(c) * inv
			h -= p * math.Log2(p)
		}
	}
	return h
}

// MutualInformation returns I(A;B) in bits from a joint histogram and the
// two marginals (Equation 5). All histograms must be over the same n.
func MutualInformation(joint [][]int, ca, cb []int, n int) float64 {
	if n <= 0 {
		return 0
	}
	inv := 1.0 / float64(n)
	mi := 0.0
	for i := range joint {
		if ca[i] == 0 {
			continue
		}
		pa := float64(ca[i]) * inv
		for j, cij := range joint[i] {
			if cij == 0 || cb[j] == 0 {
				continue
			}
			pab := float64(cij) * inv
			pb := float64(cb[j]) * inv
			mi += pab * math.Log2(pab/(pa*pb))
		}
	}
	if mi < 0 { // clamp tiny negative FP residue
		mi = 0
	}
	return mi
}

// MutualInformationTerm returns the single (i,j) summand of Equation 7,
// used by correlation mining to score one joint bin.
func MutualInformationTerm(cij, ci, cj, n int) float64 {
	if cij == 0 || ci == 0 || cj == 0 || n == 0 {
		return 0
	}
	inv := 1.0 / float64(n)
	pab := float64(cij) * inv
	return pab * math.Log2(pab/(float64(ci)*inv*float64(cj)*inv))
}

// ConditionalEntropy returns H(A|B) = H(A) − I(A;B) (Equation 6): the
// information A carries beyond what B already conveys — the paper's
// importance score for time-step selection.
func ConditionalEntropy(joint [][]int, ca, cb []int, n int) float64 {
	return Entropy(ca, n) - MutualInformation(joint, ca, cb, n)
}

// EMDCount is the count variant of the Earth Mover's Distance (Equation 3,
// first method): bins are compared by element count only. CFP(j) accumulates
// the signed count differences and the distance sums |CFP(j)|, the classic
// 1-D EMD between the two value distributions.
func EMDCount(ha, hb []int) float64 {
	if len(ha) != len(hb) {
		panic(fmt.Sprintf("metrics: EMD over histograms of %d and %d bins", len(ha), len(hb)))
	}
	cfp := 0
	total := 0.0
	for j := range ha {
		cfp += ha[j] - hb[j]
		total += math.Abs(float64(cfp))
	}
	return total
}

// EMDSpatialData is the spatial variant of EMD computed from raw data
// (Equation 3, second method): Diff(j) counts the *positions* where exactly
// one of the two time-steps has an element in bin j, so spatial arrangement
// matters, not just counts.
func EMDSpatialData(a, b []float64, m binning.Mapper) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: spatial EMD over arrays of length %d and %d", len(a), len(b)))
	}
	diffs := make([]int, m.Bins())
	for k := range a {
		ba, bb := m.Bin(a[k]), m.Bin(b[k])
		if ba != bb {
			diffs[ba]++
			diffs[bb]++
		}
	}
	return EMDFromDiffs(diffs)
}

// EMDFromDiffs is Equation 3's distance over the per-bin differences:
// CFP(j) accumulates Diff(0..j), and the distance sums CFP.
func EMDFromDiffs(diffs []int) float64 {
	cfp := 0
	total := 0.0
	for _, d := range diffs {
		cfp += d
		total += float64(cfp)
	}
	return total
}

// EMDSpatialBitmaps computes the identical spatial EMD from two indices of
// the same bin count: both are decoded into bin ids and compared position by
// position (EMDSpatialFromIDs). Figure 4's XOR popcount of bin j is the same
// number, the positions where exactly one of the two steps lies in bin j.
// Like JointHistogramBitmaps it accepts any index of up to
// index.MaxIDBins bins.
func EMDSpatialBitmaps(xa, xb *index.Index) float64 {
	if xa.Bins() != xb.Bins() {
		panic(fmt.Sprintf("metrics: spatial EMD over indices with %d and %d bins", xa.Bins(), xb.Bins()))
	}
	return EMDSpatialFromIDs(index.DecodeBinIDs(xa, 1), index.DecodeBinIDs(xb, 1))
}

// EMDSpatialFromIDs is the spatial EMD of two indexes of the same bin count
// in decoded form: Diff(j) from one pass over the two id arrays.
func EMDSpatialFromIDs(a, b *index.BinIDs) float64 {
	if a == nil || b == nil {
		panic(fmt.Sprintf("metrics: spatial EMD over an index of more than %d bins", index.MaxIDBins))
	}
	if a.Len() != b.Len() || a.Bins != b.Bins {
		panic(fmt.Sprintf("metrics: spatial EMD over %d and %d ids of %d and %d bins", a.Len(), b.Len(), a.Bins, b.Bins))
	}
	diffs := make([]int, a.Bins)
	switch {
	case a.U8 != nil && b.U8 != nil:
		SpatialDiffs(a.U8, b.U8, diffs)
	case a.U8 != nil:
		SpatialDiffs(a.U8, b.U16, diffs)
	case b.U8 != nil:
		SpatialDiffs(a.U16, b.U8, diffs)
	default:
		SpatialDiffs(a.U16, b.U16, diffs)
	}
	return EMDFromDiffs(diffs)
}

// SpatialDiffs adds Equation 3's Diff over two equally long id arrays into
// diffs: a position whose ids differ counts once in each of its two bins.
func SpatialDiffs[A, B bitvec.ID](a []A, b []B, diffs []int) {
	b = b[:len(a)]
	for k, ia := range a {
		if ib := int(b[k]); int(ia) != ib {
			diffs[ia]++
			diffs[ib]++
		}
	}
}

// Pair bundles the full set of pairwise metrics the selection algorithm
// consumes, so one joint-distribution computation serves them all.
type Pair struct {
	EntropyA, EntropyB float64
	MI                 float64
	CondEntropyAB      float64 // H(A|B)
	CondEntropyBA      float64 // H(B|A)
}

// PairFromData computes every pairwise metric by scanning the raw arrays.
func PairFromData(a, b []float64, ma, mb binning.Mapper) Pair {
	ha := Histogram(a, ma)
	hb := Histogram(b, mb)
	joint := JointHistogram(a, b, ma, mb)
	return PairFromJoint(joint, ha, hb, len(a))
}

// PairFromBitmaps computes the identical metrics from two indices.
func PairFromBitmaps(xa, xb *index.Index) Pair {
	joint := JointHistogramBitmaps(xa, xb)
	return PairFromJoint(joint, xa.Histogram(), xb.Histogram(), xa.N())
}

// PairFromJoint computes them from a joint distribution of n elements and
// its two marginals.
func PairFromJoint(joint [][]int, ha, hb []int, n int) Pair {
	ea := Entropy(ha, n)
	eb := Entropy(hb, n)
	mi := MutualInformation(joint, ha, hb, n)
	return Pair{
		EntropyA:      ea,
		EntropyB:      eb,
		MI:            mi,
		CondEntropyAB: ea - mi,
		CondEntropyBA: eb - mi,
	}
}
