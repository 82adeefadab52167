package selection

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/sim/heat3d"
)

// The paper's claim at the scorer: the conditional-entropy score from the
// bitmaps is the full-data score to the last bit, whatever the bins are
// encoded as, however many workers decode and tally, and with the kept
// step's ids cached on its summary. One kept summary is scored against
// several candidates (the cache's whole point), then a candidate replaces
// it, as a selection does at each interval's end: the ids used must always
// be the current kept step's own.
func TestCondEntropyScoreMatchesFullData(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	m := mapper(t)
	raw := evolvingSteps(r, 9, 4000)
	codecs := []codec.ID{codec.WAH, codec.BBC, codec.Dense, codec.Auto}
	for _, workers := range []int{1, 2, 5} {
		summary := func(step int) (*DataSummary, *BitmapSummary) {
			// A different encoding per step, so a score's two operands mix codecs.
			x := index.BuildCodec(raw[step], m, codecs[(step+workers)%len(codecs)])
			return NewDataSummary(raw[step], m), &BitmapSummary{X: x, Workers: workers}
		}
		keptData, kept := summary(0)
		for step := 1; step < len(raw); step++ {
			data, bmp := summary(step)
			for rep := 0; rep < 2; rep++ { // the second score runs entirely from the cache
				if got, want := bmp.Dissimilarity(kept, ConditionalEntropy), data.Dissimilarity(keptData, ConditionalEntropy); got != want {
					t.Fatalf("workers=%d: step %d vs kept: bitmaps score %v, full data %v", workers, step, got, want)
				}
			}
			if step%3 == 0 {
				keptData, kept = data, bmp
			}
		}
	}
}

// A summary's cached ids are shared by every candidate scored against it;
// candidates scored concurrently (a multi-variable step does this across its
// variables) must agree with the serial answer. Run with -race.
func TestCondEntropyScoreConcurrentCandidates(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	m := mapper(t)
	raw := evolvingSteps(r, 6, 3000)
	kept := &BitmapSummary{X: index.BuildCodec(raw[0], m, codec.Auto), Workers: 2}
	keptData := NewDataSummary(raw[0], m)
	var wg sync.WaitGroup
	for step := 1; step < len(raw); step++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bmp := &BitmapSummary{X: index.BuildCodec(raw[step], m, codec.Auto), Workers: 2}
			want := NewDataSummary(raw[step], m).Dissimilarity(keptData, ConditionalEntropy)
			if got := bmp.Dissimilarity(kept, ConditionalEntropy); got != want {
				t.Errorf("step %d: concurrent score %v, want %v", step, got, want)
			}
		}()
	}
	wg.Wait()
}

var sinkScore float64

// One conditional-entropy score between two heat3d steps (64³ elements, 160
// bins, adaptive codecs): cold builds both summaries' state from scratch, as
// the first candidate of an interval does; kept-cached is every later
// candidate, which decodes only itself.
func BenchmarkCondEntropyScore(b *testing.B) {
	h, err := heat3d.New(64, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	rg := h.Ranges()[0]
	m, err := binning.NewUniform(rg[0], rg[1], 160)
	if err != nil {
		b.Fatal(err)
	}
	var xs []*index.Index
	for step := 0; step < 21; step++ {
		if field := h.Step(1)[0].Data; step >= 19 {
			xs = append(xs, index.BuildCodec(field, m, codec.Auto))
		}
	}
	for _, workers := range []int{1, 2} {
		cand := &BitmapSummary{X: xs[1], Workers: workers}
		b.Run(fmt.Sprintf("cold/%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkScore = cand.Dissimilarity(&BitmapSummary{X: xs[0], Workers: workers}, ConditionalEntropy)
			}
		})
		b.Run(fmt.Sprintf("kept-cached/%d", workers), func(b *testing.B) {
			kept := &BitmapSummary{X: xs[0], Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkScore = cand.Dissimilarity(kept, ConditionalEntropy)
			}
		})
	}
}
