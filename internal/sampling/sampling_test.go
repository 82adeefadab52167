package sampling

import (
	"math"
	"math/rand"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/metrics"
	"insitubits/internal/selection"
)

func TestValidation(t *testing.T) {
	cases := []struct {
		n   int
		pct float64
	}{{0, 10}, {-5, 10}, {100, 0}, {100, -1}, {100, 101}}
	for _, c := range cases {
		if _, err := NewRandom(c.n, c.pct, 1); err == nil {
			t.Errorf("NewRandom(%d, %g) accepted", c.n, c.pct)
		}
	}
}

func TestRandomFraction(t *testing.T) {
	for _, pct := range []float64{1, 5, 30, 100} {
		s, err := NewRandom(10000, pct, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got := 100 * s.Fraction(); math.Abs(got-pct) > 0.5 {
			t.Errorf("pct=%g: realized %.2f%%", pct, got)
		}
	}
}

func TestPositionsSortedDistinctInRange(t *testing.T) {
	s, err := NewRandom(5000, 13, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, p := range s.Positions() {
		if p <= prev || p >= 5000 {
			t.Fatalf("position %d after %d invalid", p, prev)
		}
		prev = p
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a, _ := NewRandom(1000, 20, 42)
	b, _ := NewRandom(1000, 20, 42)
	c, _ := NewRandom(1000, 20, 43)
	pa, pb, pc := a.Positions(), b.Positions(), c.Positions()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed produced different samples")
		}
	}
	same := len(pa) == len(pc)
	if same {
		for i := range pa {
			if pa[i] != pc[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestSample(t *testing.T) {
	s, _ := NewRandom(10, 30, 5)
	data := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got, err := s.Sample(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range s.Positions() {
		if got[i] != data[p] {
			t.Fatalf("sample[%d]=%g want %g", i, got[i], data[p])
		}
	}
	if _, err := s.Sample(make([]float64, 11)); err == nil {
		t.Fatal("wrong-length array accepted")
	}
	if s.SampleBytes() != 8*s.Len() {
		t.Fatal("SampleBytes inconsistent")
	}
	if s.SourceLen() != 10 {
		t.Fatal("SourceLen wrong")
	}
}

// TestSamplingLosesInformation reproduces the qualitative content of the
// paper's Figure 16: metric values on samples deviate from the exact ones,
// and more aggressive sampling deviates more (while bitmaps are exact).
func TestSamplingLosesInformation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 20000
	mkStep := func(shift float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Mod(math.Abs(5+3*math.Sin(float64(i)/200+shift)+0.3*r.NormFloat64()), 10)
		}
		return out
	}
	a := mkStep(0)
	b := mkStep(1.3)
	m, _ := binning.NewUniform(0, 10, 64)
	exact := metrics.PairFromData(a, b, m, m).CondEntropyAB

	prevLoss := -1.0
	for _, pct := range []float64{30, 5, 1} {
		s, err := NewRandom(n, pct, 11)
		if err != nil {
			t.Fatal(err)
		}
		sa, _ := s.Sample(a)
		sb, _ := s.Sample(b)
		approx := metrics.PairFromData(sa, sb, m, m).CondEntropyAB
		loss := math.Abs(exact-approx) / math.Abs(exact)
		if loss == 0 {
			t.Fatalf("pct=%g: implausible zero loss", pct)
		}
		if loss < prevLoss*0.3 { // allow noise, but the trend must hold
			t.Fatalf("pct=%g: loss %.4f much smaller than at higher pct (%.4f)", pct, loss, prevLoss)
		}
		prevLoss = loss
	}
}

// TestSelectionOnSamplesCanDiverge documents that sample-based selection is
// an approximation: it runs the same greedy algorithm, but over perturbed
// metrics. (It may coincide with the exact selection on easy inputs; here we
// only require that the machinery runs end to end.)
func TestSelectionOnSamplesRuns(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n := 4000
	m, _ := binning.NewUniform(0, 10, 32)
	s, _ := NewRandom(n, 10, 5)
	var exact, approx []selection.Summary
	for step := 0; step < 12; step++ {
		data := make([]float64, n)
		for i := range data {
			data[i] = math.Mod(math.Abs(5+3*math.Sin(float64(i)/100+float64(step)/3)+0.2*r.NormFloat64()), 10)
		}
		exact = append(exact, selection.NewDataSummary(data, m))
		sd, err := s.Sample(data)
		if err != nil {
			t.Fatal(err)
		}
		approx = append(approx, selection.NewDataSummary(sd, m))
	}
	re, err := selection.Select(exact, 4, selection.ConditionalEntropy)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := selection.Select(approx, 4, selection.ConditionalEntropy)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Selected) != 4 || len(ra.Selected) != 4 {
		t.Fatalf("selections: exact %v approx %v", re.Selected, ra.Selected)
	}
}
