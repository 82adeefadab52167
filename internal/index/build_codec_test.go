package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/codec"
	"insitubits/internal/sim/heat3d"
)

// heatLike imitates a diffusing field on its way out of a cold start: long
// ambient stretches in one bin (past 50 % of the elements, mostly one-fills),
// smooth fronts that sweep bins in clusters (BBC's) and a noisy band whose
// bins touch most segments (WAH's), so the adaptive policy has both choices
// to make.
func heatLike(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; {
		run := 1 + r.Intn(400)
		switch r.Intn(6) {
		case 0: // a front: a smooth ramp across the value range
			from, to := r.Float64()*10, r.Float64()*10
			for j := 0; j < run && i < n; j, i = j+1, i+1 {
				out[i] = from + (to-from)*float64(j)/float64(run)
			}
		case 1: // noise
			for j := 0; j < run && i < n; j, i = j+1, i+1 {
				out[i] = 6 + r.Float64()*3
			}
		default: // ambient
			for j := 0; j < 2*run && i < n; j, i = j+1, i+1 {
				out[i] = 2.5
			}
		}
	}
	return out
}

// The builders tally the histogram as segments flush instead of recounting
// finished bitmaps; the tallies must be the bitmaps' true counts.
func TestBuilderCountsMatchBitmaps(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	m := mustUniform(t, 24)
	builders := map[string]func([]float64) *Index{
		"algorithm1": func(d []float64) *Index { return BuildAlgorithm1(d, m) },
		"two-phase":  func(d []float64) *Index { return BuildTwoPhase(d, m) },
	}
	for _, w := range []int{1, 2, 3, 7} {
		builders[fmt.Sprintf("parallel-%d", w)] = func(d []float64) *Index { return BuildParallel(d, m, w) }
		builders[fmt.Sprintf("parallel-auto-%d", w)] = func(d []float64) *Index { return BuildParallelCodec(d, m, w, codec.Auto) }
	}
	var lengths []int
	for _, k := range []int{0, 1, 2, 7, 33} {
		for d := -2; d <= 2; d++ {
			if n := 31*k + d; n >= 0 {
				lengths = append(lengths, n)
			}
		}
	}
	for _, n := range lengths {
		data := heatLike(r, n)
		for name, build := range builders {
			x := build(data)
			total := 0
			for b := 0; b < x.Bins(); b++ {
				if got, want := x.Count(b), x.Bitmap(b).Count(); got != want {
					t.Fatalf("%s, n=%d: bin %d tallied %d, bitmap holds %d", name, n, b, got, want)
				}
				total += x.Count(b)
			}
			if total != n {
				t.Fatalf("%s, n=%d: counts sum to %d", name, n, total)
			}
		}
	}
}

// The one-call write path must store exactly what build-then-recode stored:
// per bin the same codec tag, the same payload bytes and the same count,
// under one fresh generation.
func TestBuildParallelCodecMatchesBuildThenRecode(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	m := mustUniform(t, 40)
	seen := map[codec.ID]bool{}
	for _, n := range []int{0, 1, 30, 31, 32, 61, 7*31 - 1, 7 * 31, 5000, 40000} {
		data := heatLike(r, n)
		for _, id := range []codec.ID{codec.Auto, codec.WAH, codec.BBC} {
			want := BuildAlgorithm1(data, m).Recode(id)
			for _, w := range []int{1, 2, 3, 7} {
				before := genCounter.Load()
				got := BuildParallelCodec(data, m, w, id)
				if genCounter.Load() != before+1 || got.Generation() != before+1 {
					t.Fatalf("n=%d %v workers=%d: generation %d after counter %d→%d, want one fresh stamp",
						n, id, w, got.Generation(), before, genCounter.Load())
				}
				if got.N() != n || got.Bins() != want.Bins() {
					t.Fatalf("n=%d %v workers=%d: shape %d×%d", n, id, w, got.N(), got.Bins())
				}
				for b := 0; b < got.Bins(); b++ {
					if got.Codec(b) != want.Codec(b) || got.Count(b) != want.Count(b) ||
						!bytes.Equal(codec.Payload(got.Bitmap(b)), codec.Payload(want.Bitmap(b))) {
						t.Fatalf("n=%d %v workers=%d: bin %d is %v/%d set/%d B, build-then-recode gives %v/%d set/%d B",
							n, id, w, b, got.Codec(b), got.Count(b), got.Bitmap(b).SizeBytes(),
							want.Codec(b), want.Count(b), want.Bitmap(b).SizeBytes())
					}
					if id == codec.Auto {
						seen[got.Codec(b)] = true
					}
				}
			}
		}
	}
	if len(seen) != 2 {
		t.Fatalf("the auto policy chose only %v: the data no longer exercises every codec", seen)
	}
}

// benchField is one heat3d step (64³ elements) and its 160-bin mapper.
func benchField(b *testing.B) ([]float64, binning.Mapper) {
	h, err := heat3d.New(64, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	var field []float64
	for step := 0; step < 20; step++ {
		field = h.Step(1)[0].Data
	}
	rg := h.Ranges()[0]
	m, err := binning.NewUniform(rg[0], rg[1], 160)
	if err != nil {
		b.Fatal(err)
	}
	return field, m
}

var sinkIndex *Index

func BenchmarkBuildParallelCodec(b *testing.B) {
	data, m := benchField(b)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprint(w), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(data)))
			for i := 0; i < b.N; i++ {
				sinkIndex = BuildParallelCodec(data, m, w, codec.Auto)
			}
		})
	}
}
