package selection

import (
	"math"
	"math/rand"
	"testing"

	"insitubits/internal/index"
)

func TestSelectDPValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	raw := evolvingSteps(r, 5, 100)
	m := mapper(t)
	_, bmp := summaries(t, raw, m)
	if _, err := SelectDP(nil, 1, EMDCount); err == nil {
		t.Error("empty steps accepted")
	}
	if _, err := SelectDP(bmp, 0, EMDCount); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := SelectDP(bmp, 6, EMDCount); err == nil {
		t.Error("k>n accepted")
	}
	res, err := SelectDP(bmp, 1, EMDCount)
	if err != nil || len(res.Selected) != 1 || res.Selected[0] != 0 {
		t.Errorf("k=1: %v %v", res, err)
	}
}

func TestSelectDPShape(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	raw := evolvingSteps(r, 20, 400)
	m := mapper(t)
	_, bmp := summaries(t, raw, m)
	res, err := SelectDP(bmp, 6, ConditionalEntropy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 6 || res.Selected[0] != 0 {
		t.Fatalf("selected %v", res.Selected)
	}
	for i := 1; i < len(res.Selected); i++ {
		if res.Selected[i] <= res.Selected[i-1] {
			t.Fatalf("not ascending: %v", res.Selected)
		}
	}
	if len(res.Scores) != 5 {
		t.Fatalf("%d scores", len(res.Scores))
	}
	// Reported scores are the actual link dissimilarities.
	for i := 1; i < len(res.Selected); i++ {
		want := bmp[res.Selected[i]].Dissimilarity(bmp[res.Selected[i-1]], ConditionalEntropy)
		if math.Abs(res.Scores[i-1]-want) > 1e-9 {
			t.Fatalf("score %d = %g want %g", i-1, res.Scores[i-1], want)
		}
	}
}

func TestDPDominatesGreedy(t *testing.T) {
	// The DP maximizes the chain objective, so its score can never be
	// below the greedy selection's score on the same objective.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		raw := evolvingSteps(r, 24, 300)
		m := mapper(t)
		_, bmp := summaries(t, raw, m)
		for _, metric := range []Metric{ConditionalEntropy, EMDCount} {
			greedy, err := Select(bmp, 6, metric)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := SelectDP(bmp, 6, metric)
			if err != nil {
				t.Fatal(err)
			}
			gs := ChainScore(bmp, greedy.Selected, metric)
			ds := ChainScore(bmp, dp.Selected, metric)
			if ds < gs-1e-9 {
				t.Fatalf("trial %d %v: DP score %g below greedy %g", trial, metric, ds, gs)
			}
		}
	}
}

func TestDPMatchesBruteForceSmall(t *testing.T) {
	// Exhaustive check on a tiny instance: enumerate all ascending chains.
	r := rand.New(rand.NewSource(4))
	raw := evolvingSteps(r, 8, 200)
	m := mapper(t)
	_, bmp := summaries(t, raw, m)
	const k = 4
	dp, err := SelectDP(bmp, k, EMDCount)
	if err != nil {
		t.Fatal(err)
	}
	bestScore := -1.0
	var chain [k]int
	chain[0] = 0
	var rec func(depth, last int, score float64)
	rec = func(depth, last int, score float64) {
		if depth == k {
			if score > bestScore {
				bestScore = score
			}
			return
		}
		for next := last + 1; next < len(bmp); next++ {
			rec(depth+1, next, score+bmp[next].Dissimilarity(bmp[last], EMDCount))
		}
	}
	rec(1, 0, 0)
	if got := ChainScore(bmp, dp.Selected, EMDCount); math.Abs(got-bestScore) > 1e-9 {
		t.Fatalf("DP score %g, brute force %g", got, bestScore)
	}
}

func TestDPBitmapsMatchData(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	raw := evolvingSteps(r, 15, 500)
	m := mapper(t)
	data, bmp := summaries(t, raw, m)
	rd, err := SelectDP(data, 5, ConditionalEntropy)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := SelectDP(bmp, 5, ConditionalEntropy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rd.Selected {
		if rd.Selected[i] != rb.Selected[i] {
			t.Fatalf("data %v vs bitmaps %v", rd.Selected, rb.Selected)
		}
	}
}

func TestDPPicksAbruptEvent(t *testing.T) {
	// Same abrupt-event setup as the greedy test: DP must also keep it.
	m := mapper(t)
	var steps []Summary
	for t0 := 0; t0 < 10; t0++ {
		data := make([]float64, 1000)
		for i := range data {
			if t0 == 6 {
				data[i] = float64((i*7)%97) / 10
			} else {
				data[i] = 5.0 + 0.001*float64(t0)
			}
		}
		steps = append(steps, NewBitmapSummary(index.Build(data, m)))
	}
	res, err := SelectDP(steps, 3, ConditionalEntropy)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range res.Selected {
		if s == 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("DP missed the abrupt event: %v", res.Selected)
	}
}
