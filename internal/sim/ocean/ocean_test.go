package ocean

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/metrics"
	"insitubits/internal/mining"
	"insitubits/internal/zorder"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(2, 10, 4, 1); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := Generate(16, 16, 4, 1); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(16, 16, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(16, 16, 4, 42)
	ta, _ := a.Var("temperature")
	tb, _ := b.Var("temperature")
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("same seed differs at %d", i)
		}
	}
	c, _ := Generate(16, 16, 4, 43)
	tc, _ := c.Var("temperature")
	same := true
	for i := range ta {
		if ta[i] != tc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestAllVariablesPresent(t *testing.T) {
	d, _ := Generate(16, 16, 4, 1)
	if len(d.Names) < 6 {
		t.Fatalf("only %d variables", len(d.Names))
	}
	for _, name := range d.Names {
		v, err := d.Var(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != d.N() {
			t.Fatalf("%s has %d cells, want %d", name, len(v), d.N())
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s[%d] = %g", name, i, x)
			}
		}
	}
	if _, err := d.Var("nope"); err == nil {
		t.Fatal("unknown variable accepted")
	}
}

func TestCurveOrderIsPermutation(t *testing.T) {
	d, _ := Generate(8, 8, 8, 2)
	rm, _ := d.Var("salinity")
	cv, _ := d.VarCurveOrder("salinity")
	if len(cv) != len(rm) {
		t.Fatal("length changed")
	}
	// Same multiset: compare sums and the layout mapping directly.
	for i := range rm {
		if cv[d.Layout().CurvePos(i)] != rm[i] {
			t.Fatalf("curve order broken at %d", i)
		}
	}
}

func TestPlantedRegionsAreCorrelated(t *testing.T) {
	d, _ := Generate(32, 32, 8, 3)
	temp, _ := d.Var("temperature")
	salt, _ := d.Var("salinity")
	inside := [2][]float64{}
	outside := [2][]float64{}
	i := 0
	for depth := 0; depth < d.NDepth; depth++ {
		for lat := 0; lat < d.NLat; lat++ {
			for lon := 0; lon < d.NLon; lon++ {
				in := false
				for _, reg := range d.Planted {
					if reg.Contains(lon, lat, depth) {
						in = true
						break
					}
				}
				if in {
					inside[0] = append(inside[0], temp[i])
					inside[1] = append(inside[1], salt[i])
				} else {
					outside[0] = append(outside[0], temp[i])
					outside[1] = append(outside[1], salt[i])
				}
				i++
			}
		}
	}
	if len(inside[0]) == 0 {
		t.Fatal("no planted cells")
	}
	// Mutual information between T and S must be much higher inside the
	// planted regions than outside.
	mi := func(a, b []float64) float64 {
		lo1, hi1 := binning.MinMax(a)
		lo2, hi2 := binning.MinMax(b)
		m1, _ := binning.NewUniform(lo1, hi1+1e-9, 24)
		m2, _ := binning.NewUniform(lo2, hi2+1e-9, 24)
		j := metrics.JointHistogram(a, b, m1, m2)
		return metrics.MutualInformation(j, metrics.Histogram(a, m1), metrics.Histogram(b, m2), len(a))
	}
	in := mi(inside[0], inside[1])
	out := mi(outside[0], outside[1])
	if in < out+0.5 {
		t.Fatalf("planted MI %.3f not clearly above background %.3f", in, out)
	}
}

func TestPlantedCurveCellsMatchesFraction(t *testing.T) {
	d, _ := Generate(16, 16, 8, 4)
	cells := d.PlantedCurveCells()
	count := 0
	for _, c := range cells {
		if c {
			count++
		}
	}
	frac := d.PlantedFraction()
	if got := float64(count) / float64(len(cells)); math.Abs(got-frac) > 1e-12 {
		t.Fatalf("fraction mismatch: %g vs %g", got, frac)
	}
	if frac <= 0 || frac >= 0.5 {
		t.Fatalf("planted fraction %.2f implausible", frac)
	}
}

func TestOceanDataCompresses(t *testing.T) {
	// Smooth geophysical fields must index compactly — the premise of
	// using bitmaps for POP data offline.
	d, _ := Generate(32, 32, 8, 5)
	temp, _ := d.VarCurveOrder("temperature")
	lo, hi := binning.MinMax(temp)
	m, _ := binning.NewUniform(lo, hi+1e-9, 64)
	x := index.Build(temp, m)
	ratio := float64(x.SizeBytes()) / float64(8*len(temp))
	if ratio > 0.60 {
		t.Fatalf("ocean temperature index is %.0f%% of raw size", 100*ratio)
	}
	t.Logf("ocean temperature index: %.1f%% of raw", 100*ratio)
}

// pureZ returns a variable permuted into untiled Morton order: the cells
// dense-ranked by their Morton code alone.
func pureZ(t *testing.T, d *Dataset, name string) []float64 {
	t.Helper()
	src, err := d.Var(name)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, d.N())
	code := make([]uint64, d.N())
	for i := range rows {
		x, y, z := i%d.NLon, i/d.NLon%d.NLat, i/(d.NLon*d.NLat)
		rows[i], code[i] = i, zorder.Encode3(uint32(x), uint32(y), uint32(z))
	}
	sort.Slice(rows, func(a, b int) bool { return code[rows[a]] < code[rows[b]] })
	dst := make([]float64, len(src))
	for p, row := range rows {
		dst[p] = src[row]
	}
	return dst
}

// buildIndex indexes v as the stored ocean files are: 48 uniform bins
// spanning its range, which do not depend on the element order, each bin in
// the smaller of the two codecs.
func buildIndex(v []float64) *index.Index {
	lo, hi := binning.MinMax(v)
	m, _ := binning.NewUniform(lo, hi+(hi-lo)*1e-9, 48)
	return index.BuildCodec(v, m, codec.Auto)
}

// Mining at the tile size reads the same cells per unit as in pure Z order,
// so its findings, unit ranges included, are those of pure Z order.
func TestTiledMiningMatchesPureZ(t *testing.T) {
	d, err := Generate(64, 64, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mining.Config{UnitSize: zorder.Tile, ValueThreshold: 0.002, SpatialThreshold: 0.05}
	mine := func(a, b []float64) []mining.Finding {
		f, err := mining.Mine(buildIndex(a), buildIndex(b), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ta, _ := d.VarCurveOrder("temperature")
	sa, _ := d.VarCurveOrder("salinity")
	tiled := mine(ta, sa)
	pure := mine(pureZ(t, d, "temperature"), pureZ(t, d, "salinity"))
	if len(tiled) == 0 {
		t.Fatal("no findings: the comparison proves nothing")
	}
	if !reflect.DeepEqual(tiled, pure) {
		t.Fatalf("tiled order found %d findings, pure Z order %d, or they differ", len(tiled), len(pure))
	}
}

// Row order inside the tiles is there to shrink the indexes.
func TestTiledOrderIndexesSmaller(t *testing.T) {
	d, err := Generate(64, 64, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	cv, _ := d.VarCurveOrder("temperature")
	tiled, pure := buildIndex(cv).SizeBytes(), buildIndex(pureZ(t, d, "temperature")).SizeBytes()
	if tiled >= pure {
		t.Fatalf("temperature index is %d B in tiled order, %d B in pure Z order", tiled, pure)
	}
	t.Logf("temperature index: tiled %d B, pure Z %d B (%.2fx)", tiled, pure, float64(tiled)/float64(pure))
}
