package query

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/metrics"
)

func smooth(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	v := 5.0
	for i := range out {
		if r.Intn(60) == 0 {
			v = r.Float64() * 10
		}
		v += (r.Float64() - 0.5) * 0.05
		out[i] = math.Min(9.999, math.Max(0, v))
	}
	return out
}

// fillVector builds the all-zeros or all-ones vector over n bits.
func fillVector(bit uint32, n int) *bitvec.Vector {
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = bit != 0
	}
	return bitvec.FromBools(bs)
}

func build(t *testing.T, data []float64, bins int) *index.Index {
	t.Helper()
	m, err := binning.NewUniform(0, 10, bins)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(data, m)
}

// naive computes the exact subset aggregate from raw data, with the SAME
// bin-granular value semantics the bitmap path has (a value subset selects
// whole bins).
func naive(x *index.Index, data []float64, s Subset) (count int, sum float64) {
	lo, hi := s.spatialBounds(len(data))
	for i := lo; i < hi; i++ {
		if s.hasValue() {
			b := x.Mapper().Bin(data[i])
			if !(x.Mapper().High(b) > s.ValueLo && x.Mapper().Low(b) < s.ValueHi) {
				continue
			}
		}
		count++
		sum += data[i]
	}
	return count, sum
}

func TestCountExactAndSumBounded(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := smooth(r, 5000)
	x := build(t, data, 64)
	subsets := []Subset{
		{},
		{ValueLo: 2, ValueHi: 7},
		{SpatialLo: 100, SpatialHi: 3100},
		{ValueLo: 4, ValueHi: 6, SpatialLo: 500, SpatialHi: 4000},
		{ValueLo: 9.99, ValueHi: 10, SpatialLo: 0, SpatialHi: 10},
	}
	for i, s := range subsets {
		wantCount, wantSum := naive(x, data, s)
		c, err := Count(context.Background(), x, s)
		if err != nil {
			t.Fatal(err)
		}
		if c != wantCount {
			t.Fatalf("subset %d: Count=%d want %d", i, c, wantCount)
		}
		agg, err := Sum(context.Background(), x, s)
		if err != nil {
			t.Fatal(err)
		}
		if agg.Count != wantCount {
			t.Fatalf("subset %d: Sum.Count=%d want %d", i, agg.Count, wantCount)
		}
		if wantCount > 0 && (wantSum < agg.Lo-1e-9 || wantSum > agg.Hi+1e-9) {
			t.Fatalf("subset %d: true sum %g outside bounds [%g, %g]", i, wantSum, agg.Lo, agg.Hi)
		}
		if agg.Estimate < agg.Lo-1e-9 || agg.Estimate > agg.Hi+1e-9 {
			t.Fatalf("subset %d: estimate %g outside its own bounds", i, agg.Estimate)
		}
	}
}

func TestMeanBounds(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data := smooth(r, 3000)
	x := build(t, data, 100)
	s := Subset{SpatialLo: 200, SpatialHi: 2500}
	cnt, sum := naive(x, data, s)
	trueMean := sum / float64(cnt)
	agg, err := Mean(context.Background(), x, s)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != cnt {
		t.Fatalf("Count=%d want %d", agg.Count, cnt)
	}
	if trueMean < agg.Lo-1e-9 || trueMean > agg.Hi+1e-9 {
		t.Fatalf("true mean %g outside [%g, %g]", trueMean, agg.Lo, agg.Hi)
	}
	// With 100 bins over a width-10 range the bound gap is the bin width.
	if agg.Hi-agg.Lo > 0.1+1e-9 {
		t.Fatalf("mean bound gap %g exceeds one bin width", agg.Hi-agg.Lo)
	}
	// Empty subset.
	empty, err := Mean(context.Background(), x, Subset{ValueLo: 100, ValueHi: 200})
	if err != nil || empty.Count != 0 {
		t.Fatalf("empty mean: %+v, %v", empty, err)
	}
}

func TestMinMaxBounds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := smooth(r, 2000)
	x := build(t, data, 64)
	s := Subset{SpatialLo: 50, SpatialHi: 1500}
	trueMin, trueMax := math.Inf(1), math.Inf(-1)
	for i := 50; i < 1500; i++ {
		trueMin = math.Min(trueMin, data[i])
		trueMax = math.Max(trueMax, data[i])
	}
	min, max, err := MinMax(context.Background(), x, s)
	if err != nil {
		t.Fatal(err)
	}
	if trueMin < min.Lo-1e-9 || trueMin > min.Hi+1e-9 {
		t.Fatalf("true min %g outside bin [%g, %g]", trueMin, min.Lo, min.Hi)
	}
	if trueMax < max.Lo-1e-9 || trueMax > max.Hi+1e-9 {
		t.Fatalf("true max %g outside bin [%g, %g]", trueMax, max.Lo, max.Hi)
	}
	// Empty subset yields zero aggregates.
	min, max, err = MinMax(context.Background(), x, Subset{ValueLo: 50, ValueHi: 60})
	if err != nil || min.Count != 0 || max.Count != 0 {
		t.Fatalf("empty MinMax: %+v %+v %v", min, max, err)
	}
}

// TestSubsetValidation: a spatial range is [0,0) (none) or non-empty inside
// [0,n), and a value range is [0,0) (none) or lo < hi; an inverted, empty
// or NaN one is an error for every op, never a request over the whole
// variable.
func TestSubsetValidation(t *testing.T) {
	x := build(t, make([]float64, 100), 4)
	nan := math.NaN()
	for _, s := range []Subset{
		{ValueLo: 60, ValueHi: 20},
		{ValueLo: 50},
		{ValueLo: 5, ValueHi: 5},
		{ValueLo: nan, ValueHi: 10},
		{ValueLo: 0, ValueHi: nan},
		{ValueLo: nan, ValueHi: nan},
		{SpatialLo: -1, SpatialHi: 10},
		{SpatialLo: 0, SpatialHi: 101},
		{SpatialLo: 90, SpatialHi: 10},
		{SpatialLo: 5, SpatialHi: 5},
		{SpatialLo: 100, SpatialHi: 100},
		{SpatialLo: -3, SpatialHi: -3},
		{SpatialLo: 5, SpatialHi: 0},
	} {
		for _, req := range []Request{{Op: OpCount, A: s}, {Op: OpBits, A: s}, {Op: OpCorrelation, A: s, B: s}} {
			if _, err := Run(context.Background(), req, x, x); err == nil {
				t.Errorf("%s over subset %+v accepted", req.Op, s)
			}
		}
		if _, err := ExplainRequest(Request{Op: OpCount, A: s}, x, nil); err == nil {
			t.Errorf("EXPLAIN over subset %+v accepted", s)
		}
		// The pair query checks its second subset as it checks the first.
		if _, err := Run(context.Background(), Request{Op: OpCorrelation, B: s}, x, x); err == nil {
			t.Errorf("correlation with B %+v accepted", s)
		}
	}
	for _, s := range []Subset{{}, {SpatialLo: 0, SpatialHi: 100}, {SpatialLo: 99, SpatialHi: 100}, {ValueLo: -5, ValueHi: 0}} {
		if _, err := Count(context.Background(), x, s); err != nil {
			t.Errorf("subset %+v rejected: %v", s, err)
		}
	}
}

func TestBitsMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	data := smooth(r, 900) // not a segment multiple
	x := build(t, data, 32)
	for trial := 0; trial < 50; trial++ {
		lo := r.Intn(len(data))
		hi := lo + r.Intn(len(data)-lo)
		vlo := r.Float64() * 10
		vhi := vlo + r.Float64()*(10-vlo)
		s := Subset{ValueLo: vlo, ValueHi: vhi, SpatialLo: lo, SpatialHi: hi}
		v, err := Bits(context.Background(), x, s)
		if err != nil {
			t.Fatal(err)
		}
		bs := bitvec.Bools(v)
		for i := range data {
			inSpace := i >= lo && i < hi
			b := x.Mapper().Bin(data[i])
			inValue := !s.hasValue() || (x.Mapper().High(b) > vlo && x.Mapper().Low(b) < vhi)
			if bs[i] != (inSpace && inValue) {
				t.Fatalf("trial %d: bit %d = %v, want %v", trial, i, bs[i], inSpace && inValue)
			}
		}
	}
}

// TestQuery: a value range selects whole bins — those it overlaps — and a
// range outside every bin selects nothing over all the elements.
func TestQuery(t *testing.T) {
	data := []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 1.4, 2.2}
	x := build(t, data, 10) // bins of width 1 over [0,10)
	q, err := Bits(context.Background(), x, Subset{ValueLo: 1, ValueHi: 3})
	if err != nil {
		t.Fatal(err)
	}
	// bins [1,2) and [2,3): elements 1.5, 2.5, 1.4, 2.2
	if q.Count() != 4 {
		t.Fatalf("[1,3) count=%d want 4", q.Count())
	}
	for _, i := range []int{1, 2, 6, 7} {
		if !bitvec.Bools(q)[i] {
			t.Fatalf("[1,3) missing element %d", i)
		}
	}
	empty, err := Bits(context.Background(), x, Subset{ValueLo: 100, ValueHi: 200})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Count() != 0 || empty.Len() != len(data) {
		t.Fatalf("out-of-range query: count=%d len=%d", empty.Count(), empty.Len())
	}
}

// TestRangeVectorCompact: a spatial range is set straight into the flat
// words and encoded once, and that one encode still finds the fills.
func TestRangeVectorCompact(t *testing.T) {
	x := build(t, make([]float64, 31*1000), 4)
	v, err := Bits(context.Background(), x, Subset{SpatialLo: 31 * 100, SpatialHi: 31 * 900})
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != 31*800 {
		t.Fatalf("Count=%d", v.Count())
	}
	if v.Words() > 3 {
		t.Fatalf("aligned range uses %d words, want <=3 fills", v.Words())
	}
	// Ragged boundaries.
	w, err := Bits(context.Background(), x, Subset{SpatialLo: 17, SpatialHi: 993})
	if err != nil {
		t.Fatal(err)
	}
	if w.Count() != 993-17 {
		t.Fatalf("ragged Count=%d", w.Count())
	}
}

func TestCorrelationSubsetMatchesFullData(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 4000
	a := smooth(r, n)
	b := make([]float64, n)
	for i := range b {
		if i >= 1000 && i < 2000 {
			b[i] = a[i] // correlated window
		} else {
			b[i] = r.Float64() * 10
		}
	}
	xa := build(t, a, 32)
	xb := build(t, b, 32)
	// Spatial subset covering the correlated window: MI from the query
	// must equal the full-data MI over the same elements.
	s := Subset{SpatialLo: 1000, SpatialHi: 2000}
	got, err := Correlation(context.Background(), xa, xb, s, s)
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.PairFromData(a[1000:2000], b[1000:2000], xa.Mapper(), xb.Mapper())
	if math.Abs(got.MI-want.MI) > 1e-9 {
		t.Fatalf("subset MI %g, full-data %g", got.MI, want.MI)
	}
	if math.Abs(got.EntropyA-want.EntropyA) > 1e-9 || math.Abs(got.CondEntropyAB-want.CondEntropyAB) > 1e-9 {
		t.Fatalf("subset metrics diverge: %+v vs %+v", got, want)
	}
	// Inside the window the variables are identical => high MI; outside
	// they are independent => low MI.
	out, err := Correlation(context.Background(), xa, xb, Subset{SpatialLo: 2500, SpatialHi: 3500}, Subset{SpatialLo: 2500, SpatialHi: 3500})
	if err != nil {
		t.Fatal(err)
	}
	if got.MI < out.MI+1 {
		t.Fatalf("correlated window MI %g not clearly above independent %g", got.MI, out.MI)
	}
}

func TestCorrelationValidation(t *testing.T) {
	x := build(t, make([]float64, 100), 4)
	y := build(t, make([]float64, 50), 4)
	if _, err := Correlation(context.Background(), x, y, Subset{}, Subset{}); err == nil {
		t.Error("mismatched indices accepted")
	}
	if _, err := Correlation(context.Background(), x, x, Subset{SpatialLo: 0, SpatialHi: 10}, Subset{SpatialLo: 5, SpatialHi: 10}); err == nil {
		t.Error("different spatial ranges accepted")
	}
	// Empty intersection returns zeros without error.
	p, err := Correlation(context.Background(), x, x, Subset{ValueLo: 50, ValueHi: 60}, Subset{})
	if err != nil || p.MI != 0 {
		t.Errorf("empty correlation: %+v, %v", p, err)
	}
}

func TestMaskedAggregation(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	data := smooth(r, 2000)
	x := build(t, data, 64)
	validBools := make([]bool, len(data))
	for i := range validBools {
		validBools[i] = r.Intn(5) != 0 // ~20% missing
	}
	mask := bitvec.FromBools(validBools)
	m, err := NewMasked(x, mask)
	if err != nil {
		t.Fatal(err)
	}
	if m.Missing() != len(data)-mask.Count() {
		t.Fatalf("Missing=%d", m.Missing())
	}
	agg, err := m.Sum(context.Background(), Subset{})
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum := 0, 0.0
	for i, ok := range validBools {
		if ok {
			wantCount++
			wantSum += data[i]
		}
	}
	if agg.Count != wantCount {
		t.Fatalf("masked Count=%d want %d", agg.Count, wantCount)
	}
	if wantSum < agg.Lo-1e-9 || wantSum > agg.Hi+1e-9 {
		t.Fatalf("masked sum %g outside [%g, %g]", wantSum, agg.Lo, agg.Hi)
	}
	if _, err := NewMasked(x, bitvec.FromBools(make([]bool, 10))); err == nil {
		t.Error("wrong-length mask accepted")
	}
}

func TestImpute(t *testing.T) {
	// Genuinely smooth data (no jumps): window-mean imputation must land
	// close to the hidden truth.
	data := make([]float64, 1000)
	for i := range data {
		data[i] = 5 + 3*math.Sin(float64(i)/40)
	}
	x := build(t, data, 200) // fine bins: midpoints close to true values
	validBools := make([]bool, len(data))
	for i := range validBools {
		validBools[i] = i%10 != 3 // every 10th element missing
	}
	m, err := NewMasked(x, bitvec.FromBools(validBools))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Impute(0); err == nil {
		t.Fatal("zero window accepted")
	}
	imputed, err := m.Impute(4)
	if err != nil {
		t.Fatal(err)
	}
	// Smooth data: imputed values must be close to the hidden truth.
	worst := 0.0
	for i, ok := range validBools {
		if ok {
			continue
		}
		if math.IsNaN(imputed[i]) {
			t.Fatalf("position %d not imputed", i)
		}
		if d := math.Abs(imputed[i] - data[i]); d > worst {
			worst = d
		}
	}
	if worst > 1.0 {
		t.Fatalf("worst imputation error %g too large for smooth data", worst)
	}

	// Bit for bit against a brute-force reference that reads the mask as
	// []bool and maps the raw values itself: a random mask, every window
	// size class, the mask under either codec.
	r := rand.New(rand.NewSource(26))
	data = smooth(r, 10007)
	x = build(t, data, 64)
	mid := func(i int) float64 {
		b := x.Mapper().Bin(data[i])
		return (x.Mapper().Low(b) + x.Mapper().High(b)) / 2
	}
	mask := make([]bool, len(data))
	for i := range mask {
		mask[i] = r.Intn(3) != 0
	}
	for _, id := range []codec.ID{codec.WAH, codec.BBC} {
		valid := codec.Encode(bitvec.FromBools(mask), id)
		bs := bitvec.Bools(valid)
		m, err := NewMasked(x, valid)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4, 33} {
			got, err := m.Impute(w)
			if err != nil {
				t.Fatal(err)
			}
			for i := range data {
				want := math.NaN()
				if bs[i] {
					want = mid(i)
				} else {
					sum, cnt := 0.0, 0
					for j := max(0, i-w); j < min(len(data), i+w+1); j++ {
						if bs[j] {
							sum += mid(j)
							cnt++
						}
					}
					if cnt > 0 {
						want = sum / float64(cnt)
					}
				}
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%v mask, window %d: position %d imputed %v, want %v", id, w, i, got[i], want)
				}
			}
		}
	}
}

// BenchmarkImpute fills the gaps of a 2^16-element array a third of whose
// elements are missing, at random, with window 4.
func BenchmarkImpute(b *testing.B) {
	r := rand.New(rand.NewSource(27))
	data := smooth(r, 1<<16)
	m, err := binning.NewUniform(0, 10, 64)
	if err != nil {
		b.Fatal(err)
	}
	mask := make([]bool, len(data))
	for i := range mask {
		mask[i] = r.Intn(3) != 0
	}
	mk, err := NewMasked(index.Build(data, m), bitvec.FromBools(mask))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mk.Impute(4); err != nil {
			b.Fatal(err)
		}
	}
}

func TestImputeAllMissingWindow(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	x := build(t, data, 8)
	m, err := NewMasked(x, bitvec.FromBools(make([]bool, 5))) // all missing
	if err != nil {
		t.Fatal(err)
	}
	imputed, err := m.Impute(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range imputed {
		if !math.IsNaN(v) {
			t.Fatalf("position %d imputed to %g with no valid data", i, v)
		}
	}
}

func TestQuantileBoundsHoldTruth(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	data := smooth(r, 4000)
	x := build(t, data, 80)
	sortedAll := append([]float64(nil), data...)
	sort.Float64s(sortedAll)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		agg, err := Quantile(context.Background(), x, Subset{}, q)
		if err != nil {
			t.Fatal(err)
		}
		truth := sortedAll[int(q*float64(len(sortedAll)-1))]
		if truth < agg.Lo-1e-9 || truth > agg.Hi+1e-9 {
			t.Fatalf("q=%g: true quantile %g outside [%g, %g]", q, truth, agg.Lo, agg.Hi)
		}
	}
	// Spatially restricted quantile.
	sub := Subset{SpatialLo: 500, SpatialHi: 2500}
	sortedSub := append([]float64(nil), data[500:2500]...)
	sort.Float64s(sortedSub)
	agg, err := Quantile(context.Background(), x, sub, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	truth := sortedSub[(len(sortedSub)-1)/2]
	if truth < agg.Lo-1e-9 || truth > agg.Hi+1e-9 {
		t.Fatalf("subset median %g outside [%g, %g]", truth, agg.Lo, agg.Hi)
	}
}

func TestQuantileValidation(t *testing.T) {
	x := build(t, make([]float64, 100), 4)
	if _, err := Quantile(context.Background(), x, Subset{}, -0.1); err == nil {
		t.Error("negative quantile accepted")
	}
	if _, err := Quantile(context.Background(), x, Subset{}, 1.1); err == nil {
		t.Error("quantile > 1 accepted")
	}
	// NaN fails every comparison, so it must be rejected by what it is not:
	// a q in [0,1]. Taken as a rank it used to answer the first bin.
	nan := Request{Op: OpQuantile, Q: math.NaN()}
	if a, err := Run(context.Background(), nan, x, nil); err == nil {
		t.Errorf("NaN quantile answered %+v", a.Agg)
	}
	if _, err := ExplainRequest(nan, x, nil); err == nil {
		t.Error("EXPLAIN of a NaN quantile accepted")
	}
	// Empty subset yields zero aggregate.
	agg, err := Quantile(context.Background(), x, Subset{ValueLo: 50, ValueHi: 60}, 0.5)
	if err != nil || agg.Count != 0 {
		t.Errorf("empty quantile: %+v, %v", agg, err)
	}
}

// TestDeadlineStopsExecution: the executor checks the request's context
// between operators, so a request whose deadline has passed returns the
// context's error instead of holding its caller (and, behind insitu-serve,
// an admission slot) for the rest of its work. Only the cached-count path,
// which reads no bitmap, answers regardless.
func TestDeadlineStopsExecution(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	x := build(t, smooth(r, 4000), 32)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	s := Subset{ValueLo: 2, ValueHi: 8, SpatialLo: 100, SpatialHi: 3900}
	for _, req := range []Request{
		{Op: OpCorrelation, A: s, B: s},
		{Op: OpCorrelation},
		{Op: OpBits, A: s},
		{Op: OpCount, A: s},
		{Op: OpQuantile, A: s, Q: 0.5},
	} {
		ans, prof, err := Analyze(expired, req, x, x)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s %s under an expired deadline: err = %v, want context.DeadlineExceeded", req.Op, req.describe(nil), err)
		}
		if ans != (Answer{Op: req.Op}) || prof.Err == "" {
			t.Errorf("%s: cancelled request left answer %+v, profile error %q", req.Op, ans, prof.Err)
		}
		if _, err := Run(expired, req, x, x); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s plain under an expired deadline: err = %v", req.Op, err)
		}
	}
	if _, err := SumMasked(expired, x, fillVector(1, x.N())); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("SumMasked under an expired deadline: err = %v", err)
	}
	if n, err := Count(expired, x, Subset{ValueLo: 2, ValueHi: 8}); err != nil || n == 0 {
		t.Errorf("cached-count path under an expired deadline: %d, %v", n, err)
	}
}
