package mining

import (
	"math/rand"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/index"
)

func TestMineParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3; trial++ {
		n := 4096 + 31*r.Intn(20)
		a, b := correlatedPair(r, n, n/4, n/2)
		m := mapper(t, 13+r.Intn(30)) // odd bin counts exercise uneven spans
		xa, xb := index.Build(a, m), index.Build(b, m)
		cfg := Config{UnitSize: 256, ValueThreshold: 0.001, SpatialThreshold: 0.03}
		serial, err := Mine(xa, xb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 5, 8, 64} {
			parallel, err := MineParallel(xa, xb, cfg, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			assertSameFindings(t, "parallel vs serial", parallel, serial)
		}
	}
}

func TestMineParallelValidation(t *testing.T) {
	m := mapper(t, 4)
	x := index.Build(make([]float64, 100), m)
	if _, err := MineParallel(x, x, Config{UnitSize: 0}, 4); err == nil {
		t.Error("bad config accepted")
	}
	y := index.Build(make([]float64, 50), m)
	if _, err := MineParallel(x, y, Config{UnitSize: 10}, 4); err == nil {
		t.Error("mismatched indices accepted")
	}
}

func TestMergeFindings(t *testing.T) {
	fs := []Finding{
		{BinA: 1, BinB: 2, Unit: 4, Begin: 400, End: 500, SpatialMI: 0.2},
		{BinA: 1, BinB: 2, Unit: 5, Begin: 500, End: 600, SpatialMI: 0.5},
		{BinA: 1, BinB: 2, Unit: 7, Begin: 700, End: 800, SpatialMI: 0.1}, // gap: new region
		{BinA: 3, BinB: 3, Unit: 5, Begin: 500, End: 600, SpatialMI: 0.9}, // other pair
	}
	regions := MergeFindings(fs)
	if len(regions) != 3 {
		t.Fatalf("%d regions: %+v", len(regions), regions)
	}
	first := regions[0]
	if first.Begin != 400 || first.End != 600 || first.Units != 2 || first.MaxMI != 0.5 {
		t.Fatalf("merged region wrong: %+v", first)
	}
	if regions[1].Units != 1 || regions[1].Begin != 700 {
		t.Fatalf("gap region wrong: %+v", regions[1])
	}
	if regions[2].BinA != 3 || regions[2].MaxMI != 0.9 {
		t.Fatalf("other-pair region wrong: %+v", regions[2])
	}
	if MergeFindings(nil) != nil {
		t.Fatal("empty merge should be nil")
	}
}

func TestMergeFindingsCoversAllUnits(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	n := 8192
	a, b := correlatedPair(r, n, 1024, 3072)
	m := mapper(t, 16)
	fs, err := Mine(index.Build(a, m), index.Build(b, m),
		Config{UnitSize: 256, ValueThreshold: 0.001, SpatialThreshold: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	regions := MergeFindings(fs)
	totalUnits := 0
	for _, reg := range regions {
		totalUnits += reg.Units
		if reg.End <= reg.Begin {
			t.Fatalf("degenerate region %+v", reg)
		}
	}
	if totalUnits != len(fs) {
		t.Fatalf("regions cover %d units, findings %d", totalUnits, len(fs))
	}
}

// BenchmarkMine and BenchmarkMineParallel4 time one whole mining pass —
// decode, value filter, per-unit tally, scan — over 2^16 elements in 48 bins.
func BenchmarkMine(b *testing.B)          { benchMine(b, 1) }
func BenchmarkMineParallel4(b *testing.B) { benchMine(b, 4) }

func benchMine(b *testing.B, workers int) {
	r := rand.New(rand.NewSource(13))
	n := 1 << 16
	aa, bb := correlatedPair(r, n, n/4, n/2)
	m, err := binning.NewUniform(0, 10, 48)
	if err != nil {
		b.Fatal(err)
	}
	xa, xb := index.Build(aa, m), index.Build(bb, m)
	cfg := Config{UnitSize: 512, ValueThreshold: 0.001, SpatialThreshold: 0.03}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineParallel(xa, xb, cfg, workers); err != nil {
			b.Fatal(err)
		}
	}
}
