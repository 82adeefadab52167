package selection

import "fmt"

// FixedLength splits steps 1..n-1 (step 0 is always pre-selected, as in the
// paper's Figure 3) into k-1 intervals of the same number of steps (±1),
// returning half-open [lo, hi) pairs; only len(importance) is read.
type FixedLength struct{}

// Partition returns the intervals of len(importance) steps for k selections.
func (FixedLength) Partition(importance []float64, k int) [][2]int {
	n := len(importance)
	if k <= 1 || n <= 1 {
		return nil
	}
	intervals, remaining := min(k-1, n-1), n-1
	out := make([][2]int, 0, intervals)
	pos := 1
	for i := 0; i < intervals; i++ {
		size := remaining / intervals
		if i < remaining%intervals {
			size++
		}
		out = append(out, [2]int{pos, pos + size})
		pos += size
	}
	return out
}

// Outcome is what Greedy.Offer decided about one step: Keep (it is its
// interval's new incumbent, and the one it displaced retires) or Retire (it
// lost, a tie keeping the earlier step, or lies in no interval), either of
// them with Commit on an interval's last step (the incumbent is the new
// selection, and the one it supersedes retires).
type Outcome uint8

const (
	Retire Outcome = 0
	Keep   Outcome = 1
	Commit Outcome = 2
)

// Greedy is Figure 3's selection in streaming form: it holds the
// fixed-length intervals, the selection so far and the open interval's
// incumbent, and is fed one score at a time, each step scored against Prev.
// Step 0 is the first selection. Within an interval the strictly greatest
// score wins, the first of equal ones.
type Greedy struct {
	Result // the selection so far

	intervals [][2]int
	iv        int // the open interval
	best      int // the open interval's incumbent; -1 before its first step
	bestScore float64
}

// NewGreedy returns the greedy for k selections of n steps.
func NewGreedy(n, k int) *Greedy {
	return &Greedy{Result: Result{Selected: []int{0}}, intervals: FixedLength{}.Partition(make([]float64, n), k), best: -1}
}

// Prev returns the latest selection, which the next step is scored against.
func (g *Greedy) Prev() int { return g.Selected[len(g.Selected)-1] }

// Done reports whether every interval is committed.
func (g *Greedy) Done() bool { return g.iv == len(g.intervals) }

// Offer feeds step t's score against Prev. Steps come in ascending order; a
// step past the open interval moves the greedy to the step's own interval,
// which is how a resumed run replays only the open interval's scores.
func (g *Greedy) Offer(t int, score float64) Outcome {
	for g.iv < len(g.intervals) && t >= g.intervals[g.iv][1] {
		g.iv, g.best = g.iv+1, -1
	}
	if g.Done() || t < g.intervals[g.iv][0] {
		return Retire
	}
	out := Retire
	if g.best < 0 || score > g.bestScore {
		g.best, g.bestScore, out = t, score, Keep
	}
	if t == g.intervals[g.iv][1]-1 {
		g.Selected, g.Scores = append(g.Selected, g.best), append(g.Scores, g.bestScore)
		g.iv, g.best = g.iv+1, -1
		out |= Commit
	}
	return out
}

// Result reports what a selection chose and why.
type Result struct {
	// Selected holds the chosen step indices in ascending order; index 0 is
	// always included.
	Selected []int
	// Scores[i] is the winning dissimilarity of Selected[i+1] within its
	// interval (the pre-selected step 0 has no score).
	Scores []float64
}

// Select runs the greedy algorithm over fixed-length intervals: keep step
// 0, then per interval keep the step with maximum dissimilarity to the
// previously selected step. It returns an error if the request is
// malformed.
func Select(steps []Summary, k int, m Metric) (*Result, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("selection: no steps")
	}
	if k < 1 || k > len(steps) {
		return nil, fmt.Errorf("selection: k=%d out of range [1,%d]", k, len(steps))
	}
	g := NewGreedy(len(steps), k)
	for t := 1; !g.Done(); t++ {
		g.Offer(t, steps[t].Dissimilarity(steps[g.Prev()], m))
	}
	return &g.Result, nil
}
