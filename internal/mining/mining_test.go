package mining

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
)

// correlatedPair fabricates two variables that are independent noise except
// inside a planted element range where B tracks A's bin exactly.
func correlatedPair(r *rand.Rand, n, plantLo, plantHi int) (a, b []float64) {
	a = make([]float64, n)
	b = make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = r.Float64() * 10
		if i >= plantLo && i < plantHi {
			b[i] = a[i] // perfectly correlated inside the planted region
		} else {
			b[i] = r.Float64() * 10
		}
	}
	return a, b
}

func mapper(t *testing.T, bins int) binning.Mapper {
	t.Helper()
	m, err := binning.NewUniform(0, 10, bins)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.BinA != b.BinA {
			return a.BinA < b.BinA
		}
		if a.BinB != b.BinB {
			return a.BinB < b.BinB
		}
		return a.Unit < b.Unit
	})
}

func assertSameFindings(t *testing.T, name string, got, want []Finding) {
	t.Helper()
	sortFindings(got)
	sortFindings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d findings, want %d", name, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.BinA != w.BinA || g.BinB != w.BinB || g.Unit != w.Unit || g.Begin != w.Begin || g.End != w.End {
			t.Fatalf("%s: finding %d = %+v, want %+v", name, i, g, w)
		}
		if math.Abs(g.ValueMI-w.ValueMI) > 1e-9 || math.Abs(g.SpatialMI-w.SpatialMI) > 1e-9 {
			t.Fatalf("%s: finding %d MI (%g,%g) want (%g,%g)", name, i, g.ValueMI, g.SpatialMI, w.ValueMI, w.SpatialMI)
		}
	}
}

func TestMineFindsPlantedRegion(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 8192
	plantLo, plantHi := 4096, 4096+1024
	a, b := correlatedPair(r, n, plantLo, plantHi)
	m := mapper(t, 16)
	xa, xb := index.Build(a, m), index.Build(b, m)
	cfg := Config{UnitSize: 256, ValueThreshold: 0.001, SpatialThreshold: 0.05}
	fs, err := Mine(xa, xb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) == 0 {
		t.Fatal("no findings")
	}
	// Every unit inside the planted region must be hit by some finding, and
	// the bulk of findings must lie inside it.
	inPlant := 0
	unitsHit := map[int]bool{}
	for _, f := range fs {
		if f.Begin >= plantLo && f.End <= plantHi {
			inPlant++
			unitsHit[f.Unit] = true
		}
		if f.BinA != f.BinB {
			t.Fatalf("planted correlation is diagonal, got finding %+v", f)
		}
	}
	if frac := float64(inPlant) / float64(len(fs)); frac < 0.9 {
		t.Fatalf("only %.0f%% of findings inside planted region", 100*frac)
	}
	if len(unitsHit) < (plantHi-plantLo)/cfg.UnitSize/2 {
		t.Fatalf("planted region coverage too sparse: %d units", len(unitsHit))
	}
}

func TestMineMatchesFullData(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		n := 2048 + 31*r.Intn(40)
		a, b := correlatedPair(r, n, n/4, n/2)
		m := mapper(t, 8+r.Intn(12))
		xa, xb := index.Build(a, m), index.Build(b, m)
		cfg := Config{UnitSize: 128, ValueThreshold: 0.0005, SpatialThreshold: 0.02}
		bm, err := Mine(xa, xb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := MineFullData(a, b, m, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameFindings(t, "bitmaps vs full data", bm, fd)
	}
}

// mineAll runs Mine, MineParallel at each worker count and MineFullData, and
// fails unless every result equals Mine's, order and MI terms included.
func mineAll(t testing.TB, name string, a, b []float64, xa, xb *index.Index, m binning.Mapper, cfg Config, workers ...int) {
	t.Helper()
	want, err := Mine(xa, xb, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	full, err := MineFullData(a, b, m, m, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(full, want) {
		t.Fatalf("%s: Mine found %d, MineFullData %d, or they differ", name, len(want), len(full))
	}
	for _, w := range workers {
		if got, err := MineParallel(xa, xb, cfg, w); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: MineParallel(%d) = %d findings, %v; Mine %d", name, w, len(got), err, len(want))
		}
	}
}

// Algorithm 2 from the bitmaps is Algorithm 2 over the binned raw arrays,
// at any worker count: one- and two-byte ids (300 bins), units from one
// element to the whole array, a last unit cut short, every codec pairing,
// and T from nothing pruned to the paper's rule.
func TestMineProperty(t *testing.T) {
	const n = 1000 // a multiple of neither 31 nor any unit size below n
	r := rand.New(rand.NewSource(3))
	a, b := correlatedPair(r, n, n/4, n/2)
	for _, bins := range []int{2, 48, 300} {
		m := mapper(t, bins)
		for _, unit := range []int{1, 7, 512, n} {
			for _, ids := range [][2]codec.ID{{codec.WAH, codec.BBC}, {codec.BBC, codec.Auto}, {codec.Auto, codec.WAH}} {
				xa, xb := index.BuildCodec(a, m, ids[0]), index.BuildCodec(b, m, ids[1])
				for _, thr := range []float64{0, DefaultValueThreshold(20, n)} {
					cfg := Config{UnitSize: unit, ValueThreshold: thr, SpatialThreshold: 0.01}
					mineAll(t, fmt.Sprintf("bins=%d unit=%d codecs=%v T=%g", bins, unit, ids, thr), a, b, xa, xb, m, cfg, 1, 2, 3)
				}
			}
		}
	}
}

func FuzzMineMatchesFullData(f *testing.F) {
	f.Add(int64(1), uint16(1000), uint16(48), uint16(64), true)
	f.Add(int64(2), uint16(97), uint16(300), uint16(1), false)
	f.Add(int64(3), uint16(31), uint16(1), uint16(31), false)
	f.Fuzz(func(t *testing.T, seed int64, n, bins, unit uint16, prune bool) {
		size := 1 + int(n)%1200
		r := rand.New(rand.NewSource(seed))
		a, b := correlatedPair(r, size, r.Intn(size), size)
		m := mapper(t, 1+int(bins)%300)
		cfg := Config{UnitSize: 1 + int(unit)%size, SpatialThreshold: 0.01}
		if prune {
			cfg.ValueThreshold = DefaultValueThreshold(1+r.Intn(20), size)
		}
		mineAll(t, "fuzz", a, b, index.BuildCodec(a, m, codec.Auto), index.BuildCodec(b, m, codec.BBC), m, cfg, 2)
	})
}

// An index read from a damaged file may not partition its elements. Mining
// must say which index and what is wrong, never answer: for an element no
// bin holds, one two bins hold, and both at once, which leaves every count
// as it was.
func TestMineOnBrokenPartition(t *testing.T) {
	const n = 2000
	r := rand.New(rand.NewSource(8))
	a, b := correlatedPair(r, n, 0, n)
	m := mapper(t, 6)
	good := index.Build(a, m)
	broken := func(edit func(bins [][]bool)) *index.Index {
		bins := make([][]bool, m.Bins())
		for k := range bins {
			bins[k] = bitvec.Bools(good.Bitmap(k))
		}
		edit(bins)
		vecs := make([]bitvec.Bitmap, len(bins))
		for k, bs := range bins {
			vecs[k] = bitvec.FromBools(bs)
		}
		x, err := index.FromParts(m, vecs, n)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	hole := func(bins [][]bool) { bins[m.Bin(a[700])][700] = false }
	overlap := func(bins [][]bool) { bins[(m.Bin(a[1500])+1)%len(bins)][1500] = true }
	for name, c := range map[string]struct {
		x    *index.Index
		want string
	}{
		"hole":         {broken(hole), "its bins hold 1999 of 2000 elements"},
		"overlap":      {broken(overlap), "element 1500 lies in two bins"},
		"hole+overlap": {broken(func(bins [][]bool) { hole(bins); overlap(bins) }), "element 1500 lies in two bins"},
	} {
		x := c.x
		total := 0
		for _, k := range x.Histogram() {
			total += k
		}
		if name == "hole+overlap" && total != n {
			t.Fatalf("the hole and the overlap leave %d of %d elements counted", total, n)
		}
		sound := index.Build(b, m)
		for side, pair := range map[string][2]*index.Index{"A": {x, sound}, "B": {sound, x}} {
			fs, err := Mine(pair[0], pair[1], Config{UnitSize: 100})
			if err == nil || fs != nil || !strings.Contains(err.Error(), "index "+side+" is not a partition: "+c.want) {
				t.Fatalf("%s in %s: %d findings, error %v", name, side, len(fs), err)
			}
		}
	}
}

func TestMineUncorrelatedFindsLittle(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	n := 8192
	a, b := correlatedPair(r, n, 0, 0) // no planted region at all
	m := mapper(t, 16)
	cfg := Config{UnitSize: 256, ValueThreshold: 0.001, SpatialThreshold: 0.2}
	fs, err := Mine(index.Build(a, m), index.Build(b, m), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) > 3 {
		t.Fatalf("independent noise produced %d findings", len(fs))
	}
}

func TestThresholdsMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 4096
	a, b := correlatedPair(r, n, 1024, 2048)
	m := mapper(t, 16)
	xa, xb := index.Build(a, m), index.Build(b, m)
	prev := -1
	for _, thr := range []float64{0.0, 0.01, 0.05, 0.2} {
		fs, err := Mine(xa, xb, Config{UnitSize: 256, ValueThreshold: 0.0005, SpatialThreshold: thr})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && len(fs) > prev {
			t.Fatalf("raising T' increased findings: %d -> %d", prev, len(fs))
		}
		prev = len(fs)
	}
}

func TestConfigValidation(t *testing.T) {
	m := mapper(t, 4)
	x := index.Build(make([]float64, 100), m)
	cases := []Config{
		{UnitSize: 0, ValueThreshold: 0, SpatialThreshold: 0},
		{UnitSize: 101, ValueThreshold: 0, SpatialThreshold: 0},
		{UnitSize: 10, ValueThreshold: -1, SpatialThreshold: 0},
		{UnitSize: 10, ValueThreshold: 0, SpatialThreshold: -1},
	}
	for i, cfg := range cases {
		if _, err := Mine(x, x, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Mismatched element counts.
	y := index.Build(make([]float64, 50), m)
	if _, err := Mine(x, y, Config{UnitSize: 10}); err == nil {
		t.Error("mismatched indices accepted")
	}
	if _, err := MineFullData(make([]float64, 10), make([]float64, 9), m, m, Config{UnitSize: 2}); err == nil {
		t.Error("mismatched arrays accepted")
	}
}

func TestChildTermUpperBoundIsSound(t *testing.T) {
	// For random joint distributions, no child term may exceed the bound
	// computed from any count >= the child count.
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 2000; trial++ {
		n := 100 + r.Intn(10000)
		cij := r.Intn(n + 1)
		ci := cij + r.Intn(n-cij+1)
		cj := cij + r.Intn(n-cij+1)
		term := termFor(cij, ci, cj, n)
		if bound := childTermUpperBound(cij, n); term > bound+1e-12 {
			t.Fatalf("term %g exceeds bound %g (cij=%d ci=%d cj=%d n=%d)", term, bound, cij, ci, cj, n)
		}
		// Bound must be monotone in the count.
		if cij+1 <= n {
			if childTermUpperBound(cij, n) > childTermUpperBound(cij+1, n)+1e-12 {
				t.Fatalf("bound not monotone at cij=%d n=%d", cij, n)
			}
		}
	}
}

func termFor(cij, ci, cj, n int) float64 {
	if cij == 0 || ci == 0 || cj == 0 {
		return 0
	}
	p := float64(cij) / float64(n)
	return p * math.Log2(p/(float64(ci)/float64(n)*float64(cj)/float64(n)))
}

func TestDefaultValueThreshold(t *testing.T) {
	if DefaultValueThreshold(0, 1000) != 0 {
		t.Error("zero count should yield zero threshold")
	}
	lo := DefaultValueThreshold(5, 10000)
	hi := DefaultValueThreshold(50, 10000)
	if !(lo < hi) {
		t.Errorf("threshold not increasing with count: %g vs %g", lo, hi)
	}
}

func TestFindingRanges(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 1000 // not a multiple of the unit size: last unit must be short
	a, b := correlatedPair(r, n, 0, n)
	m := mapper(t, 8)
	fs, err := Mine(index.Build(a, m), index.Build(b, m), Config{UnitSize: 300, ValueThreshold: 0, SpatialThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if f.Begin != f.Unit*300 {
			t.Fatalf("finding %+v: Begin inconsistent with Unit", f)
		}
		want := f.Begin + 300
		if want > n {
			want = n
		}
		if f.End != want {
			t.Fatalf("finding %+v: End=%d want %d", f, f.End, want)
		}
	}
}
