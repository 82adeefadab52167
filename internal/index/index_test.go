package index

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
)

func testData(r *rand.Rand, n int) []float64 {
	// Piecewise-smooth values in [0, 10): long runs land in one bin, which
	// exercises the fill paths the same way simulation output does.
	out := make([]float64, n)
	v := r.Float64() * 10
	for i := range out {
		if r.Intn(40) == 0 {
			v = r.Float64() * 10
		}
		v += (r.Float64() - 0.5) * 0.01
		if v < 0 {
			v = 0
		}
		if v >= 10 {
			v = 9.999
		}
		out[i] = v
	}
	return out
}

func mustUniform(t *testing.T, n int) binning.Mapper {
	t.Helper()
	m, err := binning.NewUniform(0, 10, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildMatchesAlgorithm1(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		data := testData(r, r.Intn(3000))
		m := mustUniform(t, 1+r.Intn(64))
		lazy := Build(data, m)
		dense := BuildAlgorithm1(data, m)
		if lazy.Bins() != dense.Bins() || lazy.N() != dense.N() {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
		for b := 0; b < lazy.Bins(); b++ {
			if !lazy.Bitmap(b).Equal(dense.Bitmap(b)) {
				t.Fatalf("trial %d: bin %d differs\nlazy:  %s\ndense: %s",
					trial, b, lazy.Bitmap(b), dense.Bitmap(b))
			}
			if lazy.Count(b) != dense.Count(b) {
				t.Fatalf("trial %d: bin %d count %d vs %d", trial, b, lazy.Count(b), dense.Count(b))
			}
		}
	}
}

func TestEveryElementInExactlyOneBin(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data := testData(r, 5000)
	m := mustUniform(t, 32)
	x := Build(data, m)
	bins := make([][]bool, x.Bins())
	for b := range bins {
		bins[b] = bitvec.Bools(x.Bitmap(b))
	}
	for i, v := range data {
		want := m.Bin(v)
		hits := 0
		for b := 0; b < x.Bins(); b++ {
			if bins[b][i] {
				hits++
				if b != want {
					t.Fatalf("element %d (value %g) in bin %d, want %d", i, v, b, want)
				}
			}
		}
		if hits != 1 {
			t.Fatalf("element %d appears in %d bins", i, hits)
		}
	}
}

func TestHistogramSumsToN(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		data := testData(r, r.Intn(4000))
		x := Build(data, mustUniform(t, 1+r.Intn(100)))
		sum := 0
		for _, c := range x.Histogram() {
			sum += c
		}
		if sum != len(data) {
			t.Fatalf("trial %d: histogram sums to %d, want %d", trial, sum, len(data))
		}
	}
}

func TestBuildParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		data := testData(r, 4000+r.Intn(100))
		m := mustUniform(t, 50)
		serial := Build(data, m)
		parallel := BuildParallel(data, m, workers)
		if parallel.N() != serial.N() {
			t.Fatalf("workers=%d: N=%d want %d", workers, parallel.N(), serial.N())
		}
		for b := 0; b < serial.Bins(); b++ {
			if !serial.Bitmap(b).Equal(parallel.Bitmap(b)) {
				t.Fatalf("workers=%d: bin %d differs", workers, b)
			}
			if serial.Count(b) != parallel.Count(b) {
				t.Fatalf("workers=%d: bin %d count differs", workers, b)
			}
		}
	}
}

func TestBuildParallelTinyInput(t *testing.T) {
	m := mustUniform(t, 8)
	for _, n := range []int{0, 1, 30, 31, 32, 62} {
		data := make([]float64, n)
		x := BuildParallel(data, m, 8)
		if x.N() != n {
			t.Fatalf("n=%d: N=%d", n, x.N())
		}
		if n > 0 && x.Count(0) != n {
			t.Fatalf("n=%d: all-zero data should land in bin 0, count=%d", n, x.Count(0))
		}
	}
}

// rangeBits is the value OR of the occupied bins overlapping [lo, hi), read
// on the side ChooseSide picks, as the query planner reads it.
func rangeBits(x *Index, lo, hi float64) bitvec.Bitmap {
	var sel []int
	for b := 0; b < x.Bins(); b++ {
		if x.Count(b) > 0 && x.Mapper().High(b) > lo && x.Mapper().Low(b) < hi {
			sel = append(sel, b)
		}
	}
	flat := make([]uint64, bitvec.FlatWords(x.N()))
	if len(sel) > 0 {
		x.ChooseSide(sel).Or(flat, 0, len(flat), nil)
	}
	return bitvec.FromFlat(flat, x.N())
}

func TestPaperFigure1(t *testing.T) {
	// The exact example of the paper's Figure 1: 8 elements, 4 distinct
	// values, low-level vectors e0..e3 and high-level i0 ([1,2]) i1 ([3,4]).
	data := []float64{4, 1, 2, 2, 3, 4, 3, 1}
	m, err := binning.NewExplicit([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	x := Build(data, m)
	want := map[int][]int{ // bin -> positions of 1-bits, straight from Figure 1
		0: {1, 7}, // e0: value 1
		1: {2, 3}, // e1: value 2
		2: {4, 6}, // e2: value 3
		3: {0, 5}, // e3: value 4
	}
	for b, positions := range want {
		if x.Count(b) != len(positions) {
			t.Fatalf("bin %d count=%d want %d", b, x.Count(b), len(positions))
		}
		for _, p := range positions {
			if !bitvec.Bools(x.Bitmap(b))[p] {
				t.Fatalf("bin %d missing bit %d", b, p)
			}
		}
	}
	ml, err := BuildMultiLevel(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantHigh := map[int][]int{
		0: {1, 2, 3, 7}, // i0: values in [1,2]
		1: {0, 4, 5, 6}, // i1: values in [3,4]
	}
	for h, positions := range wantHigh {
		if ml.High.Count(h) != len(positions) {
			t.Fatalf("high bin %d count=%d want %d", h, ml.High.Count(h), len(positions))
		}
		for _, p := range positions {
			if !bitvec.Bools(ml.High.Bitmap(h))[p] {
				t.Fatalf("high bin %d missing bit %d", h, p)
			}
		}
	}
}

func TestMultiLevelHighIsOrOfChildren(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	data := testData(r, 3000)
	x := Build(data, mustUniform(t, 37))
	ml, err := BuildMultiLevel(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < ml.High.Bins(); h++ {
		lo, hi := ml.G.Children(h)
		acc := x.Bitmap(lo)
		for b := lo + 1; b < hi; b++ {
			acc = acc.Or(x.Bitmap(b))
		}
		if !ml.High.Bitmap(h).Equal(acc) {
			t.Fatalf("high bin %d is not the OR of children [%d,%d)", h, lo, hi)
		}
	}
	// High-level histogram must also sum to N.
	sum := 0
	for _, c := range ml.High.Histogram() {
		sum += c
	}
	if sum != x.N() {
		t.Fatalf("high histogram sums to %d want %d", sum, x.N())
	}
	// The groups are encoded under the adaptive policy.
	for h := 0; h < ml.High.Bins(); h++ {
		if got, want := codec.Of(ml.High.Bitmap(h)), codec.Of(codec.Encode(ml.High.Bitmap(h), codec.Auto)); got != want {
			t.Fatalf("high bin %d is %s, the adaptive policy picks %s", h, got, want)
		}
	}
}

// TestChooseSideReadsTheCheaperSide: over every contiguous run of bins of a
// 37-bin index (the last group of four partial), as built and recoded, the
// chosen cover's value is the OR of the selected bins, it reads no more
// words than they encode to, and both sides are taken.
func TestChooseSideReadsTheCheaperSide(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	x := BuildCodec(testData(r, 5000), mustUniform(t, 37), codec.Auto)
	xs := map[string]*Index{"built": x, "recoded": BuildCodec(testData(r, 5000), mustUniform(t, 37), codec.WAH).Recode(codec.BBC)}
	for name, y := range xs {
		sides := map[bool]int{}
		for lo := 0; lo < y.Bins(); lo++ {
			for hi := lo + 1; hi <= y.Bins(); hi++ {
				var sel []int
				want := make([]uint64, bitvec.FlatWords(y.N()))
				words := 0
				for b := lo; b < hi; b++ {
					if y.Count(b) > 0 {
						sel = append(sel, b)
						y.Bitmap(b).OrInto(want, 0, len(want))
						words += y.Bitmap(b).Words()
					}
				}
				if len(sel) == 0 {
					continue
				}
				c := y.ChooseSide(sel)
				got := make([]uint64, len(want))
				c.Or(got, 0, len(got), nil)
				if !slices.Equal(got, want) {
					t.Fatalf("%s bins [%d,%d): the %v-complement cover reads other bits than the selected bins", name, lo, hi, c.Complement)
				}
				if c.Words > words {
					t.Fatalf("%s bins [%d,%d): the cover reads %d words, the selected bins %d", name, lo, hi, c.Words, words)
				}
				sides[c.Complement]++
			}
		}
		if sides[true] == 0 || sides[false] == 0 {
			t.Fatalf("%s: sides taken %v, want both", name, sides)
		}
	}
	before := x.Levels()
	if x.Recode(codec.WAH); x.Levels() == before {
		t.Fatal("Recode kept the groups derived from the old encodings")
	}
}

// TestGroupsConcurrentFirstUse: eight goroutines make the first call that
// needs an index's groups at once, so each may build them; all read the
// same bits, and one set of groups is published. Run with -race.
func TestGroupsConcurrentFirstUse(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	x := BuildCodec(testData(r, 20000), mustUniform(t, 30), codec.Auto)
	flat := make([]uint64, bitvec.FlatWords(x.N()))
	for b := 0; b < x.Bins(); b++ { // the bins [2, 7) overlaps, read alone
		if x.Mapper().High(b) > 2 && x.Mapper().Low(b) < 7 {
			x.Bitmap(b).OrInto(flat, 0, len(flat))
		}
	}
	want := bitvec.FromFlat(flat, x.N())
	start := make(chan struct{})
	got := make([]*MultiLevel, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if g%2 == 1 {
				if q := rangeBits(x, 2, 7); !q.Equal(want) {
					t.Errorf("goroutine %d: the chosen side differs from the OR of the bins", g)
				}
			}
			got[g] = x.Levels()
		}(g)
	}
	close(start)
	wg.Wait()
	for g, ml := range got {
		if ml != got[0] || ml != x.Levels() {
			t.Fatalf("goroutine %d got groups %p, goroutine 0 %p: more than one set published", g, ml, got[0])
		}
	}
}

func TestCompressionRatioSmooth(t *testing.T) {
	// The §2.2 claim: for simulation-like (smooth) data, bitmaps are much
	// smaller than the raw float64 array — under 30 % in most cases.
	r := rand.New(rand.NewSource(7))
	data := testData(r, 200000)
	x := Build(data, mustUniform(t, 128))
	raw := 8 * len(data)
	ratio := float64(x.SizeBytes()) / float64(raw)
	if ratio > 0.30 {
		t.Fatalf("compression ratio %.2f exceeds the paper's 30%% envelope", ratio)
	}
	t.Logf("bitmap size = %.1f%% of raw data (%d bins)", 100*ratio, x.Bins())
}

func TestSizeBytesMatchesVectors(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	data := testData(r, 1000)
	x := Build(data, mustUniform(t, 16))
	sum := 0
	for b := 0; b < x.Bins(); b++ {
		sum += x.Bitmap(b).SizeBytes()
	}
	if x.SizeBytes() != sum {
		t.Fatalf("SizeBytes=%d, sum of vectors=%d", x.SizeBytes(), sum)
	}
}

// DecodeBinIDs gives every element the mapper's bin, read back through At at
// either id width.
func TestBinIDs(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	data := testData(r, 3000)
	for _, bins := range []int{40, 300} {
		m := mustUniform(t, bins)
		ids := DecodeBinIDs(Build(data, m), 2)
		if ids.Len() != len(data) || ids.Bins != bins {
			t.Fatalf("%d bins: %d ids of %d bins", bins, ids.Len(), ids.Bins)
		}
		for i, v := range data {
			if ids.At(i) != m.Bin(v) {
				t.Fatalf("%d bins: element %d decodes to %d, mapper says %d", bins, i, ids.At(i), m.Bin(v))
			}
		}
	}
}

func TestEmptyBuild(t *testing.T) {
	x := Build(nil, mustUniform(t, 4))
	if x.N() != 0 || x.SizeBytes() != 0 {
		t.Fatalf("empty build: N=%d size=%d", x.N(), x.SizeBytes())
	}
	for b := 0; b < 4; b++ {
		if x.Bitmap(b).Len() != 0 {
			t.Fatalf("bin %d not empty", b)
		}
	}
}

func BenchmarkBuildLazy(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	data := testData(r, 1<<18)
	m, _ := binning.NewUniform(0, 10, 128)
	b.SetBytes(int64(8 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(data, m)
	}
}

func BenchmarkBuildAlgorithm1Dense(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	data := testData(r, 1<<18)
	m, _ := binning.NewUniform(0, 10, 128)
	b.SetBytes(int64(8 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildAlgorithm1(data, m)
	}
}

func BenchmarkBuildParallel8(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	data := testData(r, 1<<18)
	m, _ := binning.NewUniform(0, 10, 128)
	b.SetBytes(int64(8 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildParallel(data, m, 8)
	}
}

func TestBuildTwoPhaseMatchesStreaming(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		data := testData(r, r.Intn(3000))
		m := mustUniform(t, 1+r.Intn(48))
		a := Build(data, m)
		b := BuildTwoPhase(data, m)
		if a.Bins() != b.Bins() || a.N() != b.N() {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
		for bin := 0; bin < a.Bins(); bin++ {
			if !a.Bitmap(bin).Equal(b.Bitmap(bin)) {
				t.Fatalf("trial %d: bin %d differs", trial, bin)
			}
		}
	}
}
