package selection

import (
	"math"
	"math/rand"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/index"
)

// evolvingSteps fabricates a time series of arrays that drifts smoothly with
// occasional abrupt events, like a simulation with interesting moments.
func evolvingSteps(r *rand.Rand, nSteps, nElems int) [][]float64 {
	steps := make([][]float64, nSteps)
	base := make([]float64, nElems)
	for i := range base {
		base[i] = 5 + 2*math.Sin(float64(i)/40)
	}
	for t := range steps {
		if t > 0 && r.Intn(7) == 0 {
			for i := range base { // abrupt event
				base[i] += r.Float64()*2 - 1
			}
		}
		s := make([]float64, nElems)
		for i := range s {
			v := base[i] + 0.02*float64(t) + 0.05*(r.Float64()-0.5)
			s[i] = math.Min(9.999, math.Max(0, v))
		}
		steps[t] = s
	}
	return steps
}

func mapper(t *testing.T) binning.Mapper {
	t.Helper()
	m, err := binning.NewUniform(0, 10, 48)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func summaries(t *testing.T, raw [][]float64, m binning.Mapper) (data, bmp []Summary) {
	t.Helper()
	for _, s := range raw {
		data = append(data, NewDataSummary(s, m))
		bmp = append(bmp, NewBitmapSummary(index.Build(s, m)))
	}
	return data, bmp
}

func TestFixedLengthPartition(t *testing.T) {
	imp := make([]float64, 101)
	p := FixedLength{}.Partition(imp, 26) // 25 intervals over steps 1..100
	if len(p) != 25 {
		t.Fatalf("%d intervals, want 25", len(p))
	}
	if p[0][0] != 1 || p[len(p)-1][1] != 101 {
		t.Fatalf("coverage [%d,%d)", p[0][0], p[len(p)-1][1])
	}
	covered := 0
	for i, iv := range p {
		if iv[1] <= iv[0] {
			t.Fatalf("interval %d empty: %v", i, iv)
		}
		if i > 0 && iv[0] != p[i-1][1] {
			t.Fatalf("gap between intervals %d and %d", i-1, i)
		}
		covered += iv[1] - iv[0]
	}
	if covered != 100 {
		t.Fatalf("covered %d steps, want 100", covered)
	}
	// Sizes differ by at most one.
	min, max := 1<<30, 0
	for _, iv := range p {
		s := iv[1] - iv[0]
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > 1 {
		t.Fatalf("interval sizes range [%d,%d]", min, max)
	}
}

func TestFixedLengthDegenerate(t *testing.T) {
	if p := (FixedLength{}).Partition(make([]float64, 5), 1); p != nil {
		t.Fatalf("k=1 gave %v", p)
	}
	if p := (FixedLength{}).Partition(make([]float64, 1), 3); p != nil {
		t.Fatalf("single step gave %v", p)
	}
	// More intervals requested than steps available: one step each.
	p := FixedLength{}.Partition(make([]float64, 4), 10)
	if len(p) != 3 {
		t.Fatalf("%d intervals, want 3", len(p))
	}
}

// TestBitmapSelectionMatchesFullData is the paper's claim for online
// analysis: selection over bitmaps picks the same steps as over full data.
func TestBitmapSelectionMatchesFullData(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	raw := evolvingSteps(r, 40, 2000)
	m := mapper(t)
	data, bmp := summaries(t, raw, m)
	for _, metric := range []Metric{ConditionalEntropy, EMDCount, EMDSpatial} {
		rd, err := Select(data, 10, metric)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := Select(bmp, 10, metric)
		if err != nil {
			t.Fatal(err)
		}
		if len(rd.Selected) != len(rb.Selected) {
			t.Fatalf("%v: %d vs %d selections", metric, len(rd.Selected), len(rb.Selected))
		}
		for i := range rd.Selected {
			if rd.Selected[i] != rb.Selected[i] {
				t.Fatalf("%v: selection %d: data chose %d, bitmaps chose %d",
					metric, i, rd.Selected[i], rb.Selected[i])
			}
		}
		for i := range rd.Scores {
			if math.Abs(rd.Scores[i]-rb.Scores[i]) > 1e-9 {
				t.Fatalf("%v: score %d: %g vs %g", metric, i, rd.Scores[i], rb.Scores[i])
			}
		}
	}
}

func TestSelectProperties(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	raw := evolvingSteps(r, 30, 500)
	m := mapper(t)
	_, bmp := summaries(t, raw, m)
	res, err := Select(bmp, 8, ConditionalEntropy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected[0] != 0 {
		t.Fatal("step 0 not pre-selected")
	}
	if len(res.Selected) != 8 {
		t.Fatalf("selected %d steps, want 8", len(res.Selected))
	}
	for i := 1; i < len(res.Selected); i++ {
		if res.Selected[i] <= res.Selected[i-1] {
			t.Fatal("selection not strictly ascending")
		}
	}
	// One selection per interval, inside that interval.
	for i, iv := range (FixedLength{}).Partition(make([]float64, len(bmp)), 8) {
		s := res.Selected[i+1]
		if s < iv[0] || s >= iv[1] {
			t.Fatalf("selection %d (step %d) outside interval %v", i, s, iv)
		}
	}
}

func TestSelectValidation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	raw := evolvingSteps(r, 5, 100)
	m := mapper(t)
	_, bmp := summaries(t, raw, m)
	if _, err := Select(nil, 1, EMDCount); err == nil {
		t.Error("empty steps accepted")
	}
	if _, err := Select(bmp, 0, EMDCount); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Select(bmp, 6, EMDCount); err == nil {
		t.Error("k > n accepted")
	}
	res, err := Select(bmp, 1, EMDCount)
	if err != nil || len(res.Selected) != 1 || res.Selected[0] != 0 {
		t.Errorf("k=1 gave %v, %v", res, err)
	}
	res, err = Select(bmp, 5, EMDCount)
	if err != nil || len(res.Selected) != 5 {
		t.Errorf("k=n gave %v, %v", res, err)
	}
}

func TestSelectPicksAbruptEvent(t *testing.T) {
	// Craft 10 steps where step 6 is radically different; with k=2 and one
	// interval covering 1..9, the greedy pass must keep step 6.
	m := mapper(t)
	var steps []Summary
	for t0 := 0; t0 < 10; t0++ {
		data := make([]float64, 1000)
		for i := range data {
			if t0 == 6 {
				data[i] = float64((i*7)%97) / 10 // wild distribution
			} else {
				data[i] = 5.0 + 0.001*float64(t0)
			}
		}
		steps = append(steps, NewBitmapSummary(index.Build(data, m)))
	}
	res, err := Select(steps, 2, ConditionalEntropy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected[1] != 6 {
		t.Fatalf("greedy missed the abrupt event: selected %v", res.Selected)
	}
}

func TestMixedSummaryTypesPanic(t *testing.T) {
	m := mapper(t)
	d := NewDataSummary([]float64{1, 2}, m)
	b := NewBitmapSummary(index.Build([]float64{1, 2}, m))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic comparing mixed summary types")
		}
	}()
	d.Dissimilarity(b, EMDCount)
}

func TestMetricString(t *testing.T) {
	if ConditionalEntropy.String() == "" || EMDCount.String() == "" || EMDSpatial.String() == "" {
		t.Fatal("empty metric names")
	}
	if Metric(99).String() == "" {
		t.Fatal("unknown metric has empty name")
	}
}
