package selection

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/sim/heat3d"
)

// The paper's claim at the scorer: the conditional-entropy and spatial-EMD
// scores of the bitmap method are the full-data scores to the last bit,
// whatever the bins are encoded as and however many workers scan and merge,
// in both of its forms: a run stream handed over by the scan that found it
// (the in-situ summary) and an index whose stream is decoded the first time
// the summary is scored (an index read from a file). One kept summary is
// scored against several candidates, then a candidate replaces it, as a
// selection does at each interval's end: the stream used must always be the
// current kept step's own.
func TestCondEntropyScoreMatchesFullData(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	m := mapper(t)
	raw := evolvingSteps(r, 9, 4000)
	codecs := []codec.ID{codec.WAH, codec.BBC, codec.Auto}
	type forms struct {
		data *DataSummary
		runs *RunSummary
		bmp  *BitmapSummary
	}
	for _, workers := range []int{1, 2, 5} {
		summary := func(step int) forms {
			// A different encoding per step, so a score's two operands mix codecs.
			id := codecs[(step+workers)%len(codecs)]
			return forms{
				data: NewDataSummary(raw[step], m),
				runs: NewRunSummary(index.ScanIDs(index.MapIDs(raw[step], m, workers), m, workers), workers),
				bmp:  NewBitmapSummary(index.BuildCodec(raw[step], m, id)),
			}
		}
		kept := summary(0)
		for step := 1; step < len(raw); step++ {
			cand := summary(step)
			for rep := 0; rep < 2; rep++ { // the second score decodes nothing
				for _, metric := range []Metric{ConditionalEntropy, EMDSpatial} {
					want := cand.data.Dissimilarity(kept.data, metric)
					for form, got := range map[string]float64{
						"runs":   cand.runs.Dissimilarity(kept.runs, metric),
						"bitmap": cand.bmp.Dissimilarity(kept.bmp, metric),
					} {
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s workers=%d: step %d vs kept, %v: score %v, full data %v", form, workers, step, metric, got, want)
						}
					}
				}
			}
			if step%3 == 0 {
				kept = cand
			}
		}
	}
}

// A summary's decoded run stream is shared by every candidate scored
// against it;
// candidates scored concurrently (a multi-variable step does this across its
// variables) must agree with the serial answer. Run with -race.
func TestCondEntropyScoreConcurrentCandidates(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	m := mapper(t)
	raw := evolvingSteps(r, 6, 3000)
	kept := NewBitmapSummary(index.BuildCodec(raw[0], m, codec.Auto))
	keptData := NewDataSummary(raw[0], m)
	var wg sync.WaitGroup
	for step := 1; step < len(raw); step++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bmp := NewBitmapSummary(index.BuildCodec(raw[step], m, codec.Auto))
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
// bins). runs is the in-situ pipeline's score: both summaries are the run
// streams their scans found, so it is one merge. decoded is what a score
// over indexes read from files pays the first time: both summaries decode
// their bitmaps and scan the ids for runs, then the same merge.
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
		var runs [2]*index.Runs
		for k, field := range fields {
			runs[k] = index.ScanIDs(index.MapIDs(field, m, workers), m, workers)
		}
		b.Run(fmt.Sprintf("runs/%d", workers), func(b *testing.B) {
			kept, cand := NewRunSummary(runs[0], workers), NewRunSummary(runs[1], workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkScore = cand.Dissimilarity(kept, ConditionalEntropy)
			}
		})
	}
	var xs [2]*index.Index
	for k, field := range fields {
		xs[k] = index.BuildCodec(field, m, codec.Auto)
	}
	b.Run("decoded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kept, cand := NewBitmapSummary(xs[0]), NewBitmapSummary(xs[1])
			sinkScore = cand.Dissimilarity(kept, ConditionalEntropy)
		}
	})
}
