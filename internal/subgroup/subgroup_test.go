package subgroup

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/index"
)

// plantedDataset fabricates a dataset where the target is high exactly when
// variable 0 is in [6,8) and variable 1 is in [2,4): the subgroup the
// search must find.
func plantedDataset(r *rand.Rand, n int) (v0, v1, target []float64) {
	v0 = make([]float64, n)
	v1 = make([]float64, n)
	target = make([]float64, n)
	for i := 0; i < n; i++ {
		v0[i] = r.Float64() * 10
		v1[i] = r.Float64() * 10
		target[i] = 10 + r.NormFloat64()
		if v0[i] >= 6 && v0[i] < 8 && v1[i] >= 2 && v1[i] < 4 {
			target[i] = 30 + r.NormFloat64()
		}
	}
	return v0, v1, target
}

func buildAll(t *testing.T, arrays ...[]float64) []*index.Index {
	t.Helper()
	out := make([]*index.Index, len(arrays))
	for i, a := range arrays {
		lo, hi := binning.MinMax(a)
		m, err := binning.NewUniform(lo, hi+1e-9, 20)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = index.Build(a, m)
	}
	return out
}

func TestDiscoverFindsPlantedSubgroup(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	v0, v1, target := plantedDataset(r, 20000)
	idx := buildAll(t, v0, v1, target)
	sgs, err := Discover(idx[:2], idx[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sgs) == 0 {
		t.Fatal("nothing discovered")
	}
	best := sgs[0]
	if len(best.Conditions) != 2 {
		t.Fatalf("best subgroup has %d conditions: %+v", len(best.Conditions), best)
	}
	// The best subgroup must constrain both variables near the planted
	// ranges and have a strongly elevated mean.
	if best.Mean < 20 {
		t.Fatalf("best subgroup mean %.2f not elevated (planted ~30)", best.Mean)
	}
	for _, c := range best.Conditions {
		m := idx[c.Var].Mapper()
		lo, hi := m.Low(c.BinLo), m.High(c.BinHi-1)
		var wantLo, wantHi float64
		if c.Var == 0 {
			wantLo, wantHi = 6, 8
		} else {
			wantLo, wantHi = 2, 4
		}
		// The discovered range must overlap the planted one substantially.
		overlap := math.Min(hi, wantHi) - math.Max(lo, wantLo)
		if overlap < (wantHi-wantLo)/2 {
			t.Fatalf("condition on var %d covers [%.2f,%.2f), planted [%g,%g)", c.Var, lo, hi, wantLo, wantHi)
		}
	}
}

func TestSubgroupMeanBoundsHoldTruth(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	v0, v1, target := plantedDataset(r, 8000)
	idx := buildAll(t, v0, v1, target)
	sgs, err := Discover(idx[:2], idx[2], 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range sgs {
		// Recompute the TRUE mean over the subgroup's extent by scanning.
		count, sum := 0, 0.0
		for i := range target {
			inAll := true
			for _, c := range sg.Conditions {
				var v float64
				if c.Var == 0 {
					v = v0[i]
				} else {
					v = v1[i]
				}
				b := idx[c.Var].Mapper().Bin(v)
				if b < c.BinLo || b >= c.BinHi {
					inAll = false
					break
				}
			}
			if inAll {
				count++
				sum += target[i]
			}
		}
		if count != sg.Count {
			t.Fatalf("subgroup %v: exact count %d, reported %d", sg.Conditions, count, sg.Count)
		}
		trueMean := sum / float64(count)
		if trueMean < sg.MeanLo-1e-9 || trueMean > sg.MeanHi+1e-9 {
			t.Fatalf("subgroup %v: true mean %g outside [%g, %g]", sg.Conditions, trueMean, sg.MeanLo, sg.MeanHi)
		}
	}
}

func TestDiscoverValidation(t *testing.T) {
	m, _ := binning.NewUniform(0, 1, 4)
	x := index.Build(make([]float64, 100), m)
	y := index.Build(make([]float64, 50), m)
	if _, err := Discover(nil, x, 0); err == nil {
		t.Error("no variables accepted")
	}
	if _, err := Discover([]*index.Index{y}, x, 0); err == nil {
		t.Error("mismatched sizes accepted")
	}
	empty := index.Build(nil, m)
	if _, err := Discover([]*index.Index{empty}, empty, 0); err == nil {
		t.Error("empty dataset accepted")
	}
}

// Subgroups covering at most 1% of the elements are pruned, however far
// their mean deviates: here 25 of 5000 elements sit alone in variable 0's
// top bin with an extreme target, and would otherwise rank first.
func TestMinCountPrunes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	v0, v1, target := plantedDataset(r, 5000)
	for i := 0; i < 25; i++ {
		v0[i], target[i] = 19.99, 10000
	}
	idx := buildAll(t, v0, v1, target)
	sgs, err := Discover(idx[:2], idx[2], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sgs) != 10 {
		t.Fatalf("%d subgroups, want 10", len(sgs))
	}
	for _, sg := range sgs {
		if sg.Count <= len(target)/100 {
			t.Fatalf("subgroup %v covers %d of %d elements, at most 1%%", sg.Conditions, sg.Count, len(target))
		}
	}
}

func TestQualityOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	v0, v1, target := plantedDataset(r, 5000)
	idx := buildAll(t, v0, v1, target)
	sgs, err := Discover(idx[:2], idx[2], 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sgs); i++ {
		if sgs[i].Quality > sgs[i-1].Quality+1e-12 {
			t.Fatal("results not sorted by quality")
		}
	}
	// No duplicate condition sets.
	seen := map[string]bool{}
	for _, sg := range sgs {
		key := Describe(sg, idx[:2], nil)
		if seen[key] {
			t.Fatalf("duplicate subgroup %q", key)
		}
		seen[key] = true
	}
}

func TestDescribe(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	v0, v1, target := plantedDataset(r, 3000)
	idx := buildAll(t, v0, v1, target)
	sgs, err := Discover(idx[:2], idx[2], 1)
	if err != nil || len(sgs) == 0 {
		t.Fatal(err)
	}
	desc := Describe(sgs[0], idx[:2], []string{"pressure", "humidity"})
	if desc == "" {
		t.Fatal("empty description")
	}
	if !strings.Contains(desc, "in [") {
		t.Fatalf("description %q missing range rendering", desc)
	}
}
