package metrics

import (
	"math"
	"math/rand"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/index"
)

const eps = 1e-9

// smooth generates simulation-like data in [0,10).
func smooth(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	v := r.Float64() * 10
	for i := range out {
		if r.Intn(50) == 0 {
			v = r.Float64() * 10
		}
		v += (r.Float64() - 0.5) * 0.05
		out[i] = math.Min(9.999, math.Max(0, v))
	}
	return out
}

func uniform(t *testing.T, bins int) binning.Mapper {
	t.Helper()
	m, err := binning.NewUniform(0, 10, bins)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEntropyKnownValues(t *testing.T) {
	// Uniform over 4 outcomes: H = 2 bits.
	if h := Entropy([]int{25, 25, 25, 25}, 100); math.Abs(h-2) > eps {
		t.Fatalf("uniform-4 entropy = %g want 2", h)
	}
	// Deterministic: H = 0.
	if h := Entropy([]int{100, 0, 0}, 100); h != 0 {
		t.Fatalf("constant entropy = %g want 0", h)
	}
	// Fair coin: H = 1.
	if h := Entropy([]int{50, 50}, 100); math.Abs(h-1) > eps {
		t.Fatalf("coin entropy = %g want 1", h)
	}
	if h := Entropy(nil, 0); h != 0 {
		t.Fatalf("empty entropy = %g", h)
	}
}

func TestMutualInformationKnownValues(t *testing.T) {
	// A == B, both fair coins: I = H = 1 bit.
	joint := [][]int{{50, 0}, {0, 50}}
	if mi := MutualInformation(joint, []int{50, 50}, []int{50, 50}, 100); math.Abs(mi-1) > eps {
		t.Fatalf("identical coins MI = %g want 1", mi)
	}
	// Independent fair coins: I = 0.
	joint = [][]int{{25, 25}, {25, 25}}
	if mi := MutualInformation(joint, []int{50, 50}, []int{50, 50}, 100); math.Abs(mi) > eps {
		t.Fatalf("independent coins MI = %g want 0", mi)
	}
}

func TestConditionalEntropyIdentity(t *testing.T) {
	// H(A|A) = 0 for any distribution.
	joint := [][]int{{30, 0, 0}, {0, 50, 0}, {0, 0, 20}}
	h := []int{30, 50, 20}
	if ce := ConditionalEntropy(joint, h, h, 100); math.Abs(ce) > eps {
		t.Fatalf("H(A|A) = %g want 0", ce)
	}
	// H(A|B) = H(A) when independent.
	joint = [][]int{{25, 25}, {25, 25}}
	m := []int{50, 50}
	if ce := ConditionalEntropy(joint, m, m, 100); math.Abs(ce-1) > eps {
		t.Fatalf("independent H(A|B) = %g want 1", ce)
	}
}

func TestMutualInformationTermSumsToMI(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := smooth(r, 2000)
	b := smooth(r, 2000)
	m := uniform(t, 16)
	joint := JointHistogram(a, b, m, m)
	ha, hb := Histogram(a, m), Histogram(b, m)
	sum := 0.0
	for i := range joint {
		for j := range joint[i] {
			sum += MutualInformationTerm(joint[i][j], ha[i], hb[j], len(a))
		}
	}
	if mi := MutualInformation(joint, ha, hb, len(a)); math.Abs(sum-mi) > 1e-6 {
		t.Fatalf("term sum %g != MI %g", sum, mi)
	}
}

// TestBitmapPathMatchesDataPath is the paper's central no-accuracy-loss
// claim: every metric computed from bitmaps equals the full-data result
// exactly (same binning).
func TestBitmapPathMatchesDataPath(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 500 + r.Intn(3000)
		a := smooth(r, n)
		b := smooth(r, n)
		m := uniform(t, 8+r.Intn(60))
		xa := index.Build(a, m)
		xb := index.Build(b, m)

		// Histograms.
		ha := Histogram(a, m)
		for i, c := range xa.Histogram() {
			if c != ha[i] {
				t.Fatalf("trial %d: histogram bin %d: bitmap %d data %d", trial, i, c, ha[i])
			}
		}
		// Joint distribution: the decode path and the full-data scan must
		// agree cell by cell.
		jd := JointHistogram(a, b, m, m)
		jb := JointHistogramBitmaps(xa, xb)
		for i := range jd {
			for j := range jd[i] {
				if jd[i][j] != jb[i][j] {
					t.Fatalf("trial %d: joint[%d][%d]: bitmap %d data %d", trial, i, j, jb[i][j], jd[i][j])
				}
			}
		}
		// Full metric bundle.
		pd := PairFromData(a, b, m, m)
		pb := PairFromBitmaps(xa, xb)
		for name, pair := range map[string][2]float64{
			"EntropyA": {pd.EntropyA, pb.EntropyA},
			"EntropyB": {pd.EntropyB, pb.EntropyB},
			"MI":       {pd.MI, pb.MI},
			"H(A|B)":   {pd.CondEntropyAB, pb.CondEntropyAB},
			"H(B|A)":   {pd.CondEntropyBA, pb.CondEntropyBA},
		} {
			if math.Abs(pair[0]-pair[1]) > eps {
				t.Fatalf("trial %d: %s: data %g bitmap %g", trial, name, pair[0], pair[1])
			}
		}
		// EMD, both variants.
		if d, bm := EMDCount(ha, Histogram(b, m)), EMDCount(xa.Histogram(), xb.Histogram()); math.Abs(d-bm) > eps {
			t.Fatalf("trial %d: EMDCount: data %g bitmap %g", trial, d, bm)
		}
		if d, bm := EMDSpatialData(a, b, m), EMDSpatialBitmaps(xa, xb); math.Abs(d-bm) > eps {
			t.Fatalf("trial %d: EMDSpatial: data %g bitmap %g", trial, d, bm)
		}
	}
}

func TestEMDCountProperties(t *testing.T) {
	// Identical histograms: EMD = 0. Moving one element one bin: EMD = 1.
	h := []int{5, 3, 2}
	if d := EMDCount(h, h); d != 0 {
		t.Fatalf("EMD(h,h)=%g", d)
	}
	if d := EMDCount([]int{5, 3, 2}, []int{4, 4, 2}); d != 1 {
		t.Fatalf("one-step move EMD=%g want 1", d)
	}
	// Moving one element across two bins costs 2.
	if d := EMDCount([]int{5, 3, 2}, []int{4, 3, 3}); d != 2 {
		t.Fatalf("two-step move EMD=%g want 2", d)
	}
	// Symmetry.
	a, b := []int{9, 1, 0, 4}, []int{2, 2, 5, 5}
	if EMDCount(a, b) != EMDCount(b, a) {
		t.Fatal("EMDCount not symmetric")
	}
}

func TestEMDSpatialDetectsRearrangement(t *testing.T) {
	// Same value distribution, different spatial arrangement: count EMD is
	// zero but spatial EMD is not — the reason the paper has both variants.
	a := []float64{1, 1, 5, 5}
	b := []float64{5, 5, 1, 1}
	m := uniform(t, 10)
	if d := EMDCount(Histogram(a, m), Histogram(b, m)); d != 0 {
		t.Fatalf("count EMD = %g want 0", d)
	}
	if d := EMDSpatialData(a, b, m); d == 0 {
		t.Fatal("spatial EMD should be nonzero for rearranged data")
	}
}

func TestPanicsOnLengthMismatch(t *testing.T) {
	m := uniform(t, 4)
	for name, fn := range map[string]func(){
		"JointHistogram": func() { JointHistogram([]float64{1}, []float64{1, 2}, m, m) },
		"EMDCount":       func() { EMDCount([]int{1}, []int{1, 2}) },
		"EMDSpatialData": func() { EMDSpatialData([]float64{1}, []float64{1, 2}, m) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCFP(t *testing.T) {
	c := NewCFP([]float64{0.3, 0.1, 0.2, 0.4})
	if c.Len() != 4 {
		t.Fatalf("Len=%d", c.Len())
	}
	if f := c.FractionBelow(0.25); math.Abs(f-0.5) > eps {
		t.Fatalf("FractionBelow(0.25)=%g want 0.5", f)
	}
	if m := c.Mean(); math.Abs(m-0.25) > eps {
		t.Fatalf("Mean=%g want 0.25", m)
	}
	if q := c.Quantile(0); q != 0.1 {
		t.Fatalf("Quantile(0)=%g", q)
	}
	if q := c.Quantile(1); q != 0.4 {
		t.Fatalf("Quantile(1)=%g", q)
	}
	pts := c.Points(4)
	if len(pts) != 4 || pts[3][1] != 1 {
		t.Fatalf("Points=%v", pts)
	}
	// Monotone non-decreasing in both coordinates.
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Fatalf("CFP points not monotone: %v", pts)
		}
	}
	empty := NewCFP(nil)
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 || len(empty.Points(3)) != 0 {
		t.Fatal("empty CFP misbehaves")
	}
}

func TestRelativeErrors(t *testing.T) {
	errs, err := RelativeErrors([]float64{2, 0, -4}, []float64{1, 0.5, -5})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.5, 0.25}
	for i := range want {
		if math.Abs(errs[i]-want[i]) > eps {
			t.Fatalf("rel err %d = %g want %g", i, errs[i], want[i])
		}
	}
	if _, err := RelativeErrors([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	abs, err := AbsoluteErrors([]float64{1, -2}, []float64{3, -1})
	if err != nil || abs[0] != 2 || abs[1] != 1 {
		t.Fatalf("AbsoluteErrors = %v, %v", abs, err)
	}
}

func BenchmarkJointHistogramData(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	a := smooth(r, 1<<18)
	c := smooth(r, 1<<18)
	m, _ := binning.NewUniform(0, 10, 64)
	b.SetBytes(int64(16 * len(a)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JointHistogram(a, c, m, m)
	}
}

func BenchmarkJointHistogramBitmaps(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	a := smooth(r, 1<<18)
	c := smooth(r, 1<<18)
	m, _ := binning.NewUniform(0, 10, 64)
	xa := index.Build(a, m)
	xb := index.Build(c, m)
	b.SetBytes(int64(16 * len(a)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JointHistogramBitmaps(xa, xb)
	}
}

func BenchmarkEMDSpatialData(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	a := smooth(r, 1<<18)
	c := smooth(r, 1<<18)
	m, _ := binning.NewUniform(0, 10, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EMDSpatialData(a, c, m)
	}
}

func BenchmarkEMDSpatialBitmaps(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	a := smooth(r, 1<<18)
	c := smooth(r, 1<<18)
	m, _ := binning.NewUniform(0, 10, 64)
	xa := index.Build(a, m)
	xb := index.Build(c, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EMDSpatialBitmaps(xa, xb)
	}
}
