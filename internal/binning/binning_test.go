package binning

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformBasics(t *testing.T) {
	u, err := NewUniform(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0}, {0, 0}, {1.9, 0}, {2, 1}, {9.99, 4}, {10, 4}, {11, 4},
	}
	for _, c := range cases {
		if got := u.Bin(c.v); got != c.want {
			t.Errorf("Bin(%g)=%d want %d", c.v, got, c.want)
		}
	}
	if u.Low(0) != 0 || u.High(4) != 10 {
		t.Errorf("edges wrong: Low(0)=%g High(4)=%g", u.Low(0), u.High(4))
	}
}

func TestUniformValidation(t *testing.T) {
	if _, err := NewUniform(0, 10, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewUniform(5, 5, 3); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewUniform(6, 5, 3); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestUniformEveryValueHasOneBin(t *testing.T) {
	f := func(raw []float64) bool {
		u, err := NewUniform(-100, 100, 37)
		if err != nil {
			return false
		}
		for _, v := range raw {
			if math.IsNaN(v) {
				continue
			}
			b := u.Bin(v)
			if b < 0 || b >= u.Bins() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformBinRespectsEdges(t *testing.T) {
	u, _ := NewUniform(-3, 7, 13)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		v := -3 + r.Float64()*10
		b := u.Bin(v)
		if v < u.Low(b)-1e-9 || v > u.High(b)+1e-9 {
			t.Fatalf("value %g in bin %d [%g,%g)", v, b, u.Low(b), u.High(b))
		}
	}
}

func TestExplicit(t *testing.T) {
	e, err := NewExplicit([]float64{0, 1, 4, 9})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    float64
		want int
	}{{-5, 0}, {0, 0}, {0.5, 0}, {1, 1}, {3.99, 1}, {4, 2}, {9, 2}, {100, 2}}
	for _, c := range cases {
		if got := e.Bin(c.v); got != c.want {
			t.Errorf("Bin(%g)=%d want %d", c.v, got, c.want)
		}
	}
	if _, err := NewExplicit([]float64{1}); err == nil {
		t.Error("single edge accepted")
	}
	if _, err := NewExplicit([]float64{1, 1}); err == nil {
		t.Error("non-increasing edges accepted")
	}
}

func TestExplicitMatchesLinearScan(t *testing.T) {
	edges := []float64{-2, -1, 0, 0.5, 2, 3, 8}
	e, _ := NewExplicit(edges)
	linear := func(v float64) int {
		if v < edges[0] {
			return 0
		}
		for b := 0; b < len(edges)-1; b++ {
			if v >= edges[b] && v < edges[b+1] {
				return b
			}
		}
		return len(edges) - 2
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		v := -4 + r.Float64()*14
		if got, want := e.Bin(v), linear(v); got != want {
			t.Fatalf("Bin(%g)=%d want %d", v, got, want)
		}
	}
}

func TestGrouped(t *testing.T) {
	base, _ := NewUniform(0, 10, 10)
	g, err := NewGrouped(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Bins() != 4 { // ceil(10/3)
		t.Fatalf("Bins=%d want 4", g.Bins())
	}
	if g.Bin(0.5) != 0 || g.Bin(3.5) != 1 || g.Bin(9.5) != 3 {
		t.Error("grouped bin assignment wrong")
	}
	lo, hi := g.Children(3)
	if lo != 9 || hi != 10 {
		t.Errorf("Children(3)=[%d,%d) want [9,10)", lo, hi)
	}
	if g.Low(1) != base.Low(3) || g.High(3) != base.High(9) {
		t.Error("grouped edges wrong")
	}
	if _, err := NewGrouped(base, 0); err == nil {
		t.Error("zero fanout accepted")
	}
}

func TestGroupedConsistentWithBase(t *testing.T) {
	base, _ := NewUniform(-5, 5, 23)
	g, _ := NewGrouped(base, 4)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		v := -6 + r.Float64()*12
		if g.Bin(v) != base.Bin(v)/4 {
			t.Fatalf("grouped bin of %g inconsistent with base", v)
		}
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = %g,%g", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 1 {
		t.Fatalf("empty MinMax = %g,%g want 0,1", min, max)
	}
}

func TestEdges(t *testing.T) {
	u, _ := NewUniform(0, 4, 4)
	e := Edges(u)
	want := []float64{0, 1, 2, 3, 4}
	if len(e) != len(want) {
		t.Fatalf("Edges len %d", len(e))
	}
	for i := range want {
		if math.Abs(e[i]-want[i]) > 1e-12 {
			t.Fatalf("edge %d = %g want %g", i, e[i], want[i])
		}
	}
	// Round-trip through Explicit gives the same binning.
	ex, err := NewExplicit(e)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		v := -1 + r.Float64()*6
		if ex.Bin(v) != u.Bin(v) {
			t.Fatalf("explicit-from-edges disagrees at %g", v)
		}
	}
}

func TestEquiDepthBalancedCounts(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	// Heavily skewed sample: exponential-ish.
	sample := make([]float64, 10000)
	for i := range sample {
		sample[i] = math.Exp(r.Float64() * 5)
	}
	e, err := NewEquiDepth(sample, 16)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, e.Bins())
	for _, v := range sample {
		counts[e.Bin(v)]++
	}
	avg := len(sample) / e.Bins()
	for b, c := range counts {
		if c < avg/3 || c > avg*3 {
			t.Fatalf("bin %d holds %d values, average %d: not equi-depth", b, c, avg)
		}
	}
	// Every sample value maps inside the edge range.
	for _, v := range sample {
		b := e.Bin(v)
		if v < e.Low(b)-1e-9 || v > e.High(b)+1e-9 {
			t.Fatalf("value %g escaped bin %d [%g,%g)", v, b, e.Low(b), e.High(b))
		}
	}
}

func TestEquiDepthDuplicateHeavySample(t *testing.T) {
	// 90% of values identical: duplicate quantiles must collapse without
	// breaking edge monotonicity.
	sample := make([]float64, 1000)
	for i := range sample {
		if i%10 == 0 {
			sample[i] = float64(i)
		} else {
			sample[i] = 42
		}
	}
	e, err := NewEquiDepth(sample, 8)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < e.Bins(); b++ {
		if !(e.Low(b) < e.High(b)) {
			t.Fatalf("bin %d empty-width [%g,%g)", b, e.Low(b), e.High(b))
		}
	}
	// The maximum value must land in the final bin, not clamp outside.
	if got := e.Bin(990); got != e.Bins()-1 {
		t.Fatalf("max value in bin %d of %d", got, e.Bins())
	}
}

func TestEquiDepthValidation(t *testing.T) {
	if _, err := NewEquiDepth([]float64{1, 2, 3}, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewEquiDepth([]float64{1}, 4); err == nil {
		t.Error("single sample accepted")
	}
	// A constant sample degrades gracefully to a single bin.
	e, err := NewEquiDepth([]float64{7, 7, 7, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.Bins() != 1 || e.Bin(7) != 0 {
		t.Errorf("constant sample: %d bins, Bin(7)=%d", e.Bins(), e.Bin(7))
	}
}

func TestUniformNaNDoesNotPanic(t *testing.T) {
	u, _ := NewUniform(0, 10, 16)
	b := u.Bin(math.NaN())
	if b < 0 || b >= u.Bins() {
		t.Fatalf("NaN mapped to bin %d", b)
	}
	// NaN must also survive an index build without panicking.
	e, _ := NewExplicit([]float64{0, 1, 2})
	if b := e.Bin(math.NaN()); b < 0 || b >= e.Bins() {
		t.Fatalf("NaN mapped to explicit bin %d", b)
	}
}
