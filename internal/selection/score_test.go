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

// The paper's claim at the scorer: the conditional-entropy and spatial-EMD
// scores from the bitmaps are the full-data scores to the last bit, whatever
// the bins are encoded as, however many workers build, decode and tally, and
// wherever a summary's ids come from — handed over by the build that
// computed them, decoded from the bitmaps the first time the summary is
// scored, or one of each in a pair. One kept summary is scored against
// several candidates, then a candidate replaces it, as a selection does at
// each interval's end, dropping its ids as the in-situ pipeline does: the ids
// used must always be the current kept step's own.
func TestCondEntropyScoreMatchesFullData(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	m := mapper(t)
	raw := evolvingSteps(r, 9, 4000)
	codecs := []codec.ID{codec.WAH, codec.BBC, codec.Auto}
	for name, handed := range map[string]func(step int) bool{
		"handed-ids":  func(int) bool { return true },
		"decoded-ids": func(int) bool { return false },
		"mixed":       func(step int) bool { return step%2 == 0 }, // kept steps 0, 3, 6 alternate too
	} {
		for _, workers := range []int{1, 2, 5} {
			summary := func(step int) (*DataSummary, *BitmapSummary) {
				// A different encoding per step, so a score's two operands mix codecs.
				id := codecs[(step+workers)%len(codecs)]
				data := NewDataSummary(raw[step], m)
				if handed(step) {
					x, ids := index.BuildParallelCodecIDs(raw[step], m, workers, id)
					return data, NewBuiltSummary(x, ids, workers)
				}
				return data, &BitmapSummary{X: index.BuildCodec(raw[step], m, id), Workers: workers}
			}
			keptData, kept := summary(0)
			for step := 1; step < len(raw); step++ {
				data, bmp := summary(step)
				for rep := 0; rep < 2; rep++ { // the second score decodes nothing
					for _, metric := range []Metric{ConditionalEntropy, EMDSpatial} {
						if got, want := bmp.Dissimilarity(kept, metric), data.Dissimilarity(keptData, metric); got != want {
							t.Fatalf("%s workers=%d: step %d vs kept, %v: bitmaps score %v, full data %v", name, workers, step, metric, got, want)
						}
					}
				}
				if step%3 == 0 {
					bmp.DropIDs()
					keptData, kept = data, bmp
				}
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
// bins, adaptive codecs). handed-ids is the in-situ pipeline's score: both
// summaries carry the ids their builds emitted, so it is one tally.
// decoded-ids is what a score over indexes read from files pays the first
// time: both summaries decode their bitmaps, then the same tally.
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
	var fields [][]float64
	for step := 0; step < 21; step++ {
		if field := h.Step(1)[0].Data; step >= 19 {
			fields = append(fields, field)
		}
	}
	for _, workers := range []int{1, 2} {
		var xs [2]*index.Index
		var ids [2]*index.BinIDs
		for k, field := range fields {
			xs[k], ids[k] = index.BuildParallelCodecIDs(field, m, workers, codec.Auto)
		}
		b.Run(fmt.Sprintf("handed-ids/%d", workers), func(b *testing.B) {
			kept, cand := NewBuiltSummary(xs[0], ids[0], workers), NewBuiltSummary(xs[1], ids[1], workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkScore = cand.Dissimilarity(kept, ConditionalEntropy)
			}
		})
		b.Run(fmt.Sprintf("decoded-ids/%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kept, cand := &BitmapSummary{X: xs[0], Workers: workers}, &BitmapSummary{X: xs[1], Workers: workers}
				sinkScore = cand.Dissimilarity(kept, ConditionalEntropy)
			}
		})
	}
}
