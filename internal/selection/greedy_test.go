package selection

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"insitubits/internal/index"
)

func TestGreedyOutcomes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, k     int
		steps    []int // offered in this order; nil offers 1..n-1
		scores   []float64
		want     []Outcome
		selected []int
		won      []float64
	}{
		{
			name: "ties keep the first", n: 5, k: 2,
			scores:   []float64{3, 5, 5, 1},
			want:     []Outcome{Keep, Keep, Retire, Commit},
			selected: []int{0, 2}, won: []float64{5},
		},
		{
			name: "the last step wins its interval", n: 4, k: 2,
			scores:   []float64{1, 2, 3},
			want:     []Outcome{Keep, Keep, Keep | Commit},
			selected: []int{0, 3}, won: []float64{3},
		},
		{
			name: "k=1 has no interval", n: 4, k: 1,
			scores:   []float64{9, 9, 9},
			want:     []Outcome{Retire, Retire, Retire},
			selected: []int{0},
		},
		{
			name: "k=n commits every step", n: 4, k: 4,
			scores:   []float64{0, -1, 2},
			want:     []Outcome{Keep | Commit, Keep | Commit, Keep | Commit},
			selected: []int{0, 1, 2, 3}, won: []float64{0, -1, 2},
		},
		{
			name: "length-1 intervals after a longer one", n: 5, k: 4, // [1,3) [3,4) [4,5)
			scores:   []float64{2, 1, 0, 0},
			want:     []Outcome{Keep, Commit, Keep | Commit, Keep | Commit},
			selected: []int{0, 1, 3, 4}, won: []float64{2, 0, 0},
		},
		{
			name: "a later step moves to its own interval", n: 7, k: 4, // [1,3) [3,5) [5,7)
			steps:    []int{3, 4, 6},
			scores:   []float64{1, 2, 0},
			want:     []Outcome{Keep, Keep | Commit, Keep | Commit},
			selected: []int{0, 4, 6}, won: []float64{2, 0},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGreedy(tc.n, tc.k)
			steps := tc.steps
			if steps == nil {
				for s := 1; s < tc.n; s++ {
					steps = append(steps, s)
				}
			}
			for i, step := range steps {
				if got := g.Offer(step, tc.scores[i]); got != tc.want[i] {
					t.Fatalf("step %d: outcome %d, want %d", step, got, tc.want[i])
				}
			}
			if !reflect.DeepEqual(g.Selected, tc.selected) || !reflect.DeepEqual(g.Scores, tc.won) || g.Prev() != tc.selected[len(tc.selected)-1] {
				t.Fatalf("selected %v with %v, want %v with %v", g.Selected, g.Scores, tc.selected, tc.won)
			}
			if !g.Done() {
				t.Fatal("not done after the last step")
			}
		})
	}
}

// TestNodeSplitScoresEqualWhole is the distributed form of the paper's
// claim (§5.3): a step pair cut into contiguous node pieces of uneven sizes,
// each piece a run stream, a bitmap or a raw array, scores exactly like the
// whole arrays' RunSummary, BitmapSummary and DataSummary, for every metric.
func TestNodeSplitScoresEqualWhole(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	m := mapper(t)
	raw := evolvingSteps(r, 2, 3001)
	for _, metric := range []Metric{ConditionalEntropy, EMDCount, EMDSpatial} {
		wantBitmaps := NewBitmapSummary(index.Build(raw[1], m)).Dissimilarity(NewBitmapSummary(index.Build(raw[0], m)), metric)
		wantData := NewDataSummary(raw[1], m).Dissimilarity(NewDataSummary(raw[0], m), metric)
		stream := func(data []float64) *RunSummary {
			return NewRunSummary(index.ScanIDs(index.MapIDs(data, m, 2), m, 2), 2)
		}
		wantRuns := stream(raw[1]).Dissimilarity(stream(raw[0]), metric)
		if math.Float64bits(wantBitmaps) != math.Float64bits(wantData) || math.Float64bits(wantRuns) != math.Float64bits(wantData) {
			t.Fatalf("%v: whole bitmaps %v, whole run streams %v, whole data %v", metric, wantBitmaps, wantRuns, wantData)
		}
		for nodes := 1; nodes <= 4; nodes++ {
			cuts := make([]int, nodes+1) // node k holds about (2k+1)/nodes² of the elements
			for k := range cuts {
				cuts[k] = len(raw[0]) * k * k / (nodes * nodes)
			}
			for kind, part := range map[string]func(node int, piece []float64) Summary{
				"bitmaps": func(node int, piece []float64) Summary {
					if node%2 == 0 { // scanned run streams and decoded ones
						return NewRunSummary(index.ScanIDs(index.MapIDs(piece, m, 1), m, 1), 1)
					}
					return NewBitmapSummary(index.Build(piece, m))
				},
				"data": func(_ int, piece []float64) Summary { return NewDataSummary(piece, m) },
				"mixed": func(node int, piece []float64) Summary {
					if node%2 == 0 {
						return NewBitmapSummary(index.Build(piece, m))
					}
					return NewDataSummary(piece, m)
				},
			} {
				var steps [2]*NodeSummary
				for s := range steps {
					steps[s] = &NodeSummary{}
					for k := 0; k < nodes; k++ {
						steps[s].Parts = append(steps[s].Parts, part(k, raw[s][cuts[k]:cuts[k+1]]))
					}
				}
				for rep := 0; rep < 2; rep++ { // the second score reads cached streams and histograms
					if got := steps[1].Dissimilarity(steps[0], metric); math.Float64bits(got) != math.Float64bits(wantBitmaps) {
						t.Fatalf("%v, %d %s nodes cut at %v: %v, whole %v", metric, nodes, kind, cuts, got, wantBitmaps)
					}
				}
			}
		}
	}
}
