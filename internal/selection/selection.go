// Package selection implements the paper's online analysis: importance-
// driven time-step selection (§3). The greedy algorithm of Wang et al. —
// partition the time-steps into intervals, then per interval keep the step
// least correlated with the previously selected one — runs over an abstract
// Summary, so the same code drives the full-data baseline, the bitmap path,
// and the sampling baseline; only the metric evaluation differs.
package selection

import (
	"fmt"
	"sync"

	"insitubits/internal/binning"
	"insitubits/internal/index"
	"insitubits/internal/metrics"
)

// Metric chooses the correlation measure used for selection.
type Metric int

const (
	// ConditionalEntropy selects the step with maximal H(step | selected):
	// the step carrying the most information beyond the already-kept one.
	ConditionalEntropy Metric = iota
	// EMDCount selects by maximal count-variant Earth Mover's Distance.
	EMDCount
	// EMDSpatial selects by maximal spatial-variant EMD.
	EMDSpatial
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case ConditionalEntropy:
		return "conditional-entropy"
	case EMDCount:
		return "emd-count"
	case EMDSpatial:
		return "emd-spatial"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// Summary is one time-step's analyzable representation.
type Summary interface {
	// Dissimilarity scores this step against a previously selected one;
	// the greedy algorithm keeps the interval's maximum. Implementations
	// must accept the other summaries produced by the same source.
	Dissimilarity(selected Summary, m Metric) float64
	// Importance is the step's standalone information content (Shannon
	// entropy), used by information-volume partitioning.
	Importance() float64
	// SizeBytes is the in-memory footprint, for the memory model.
	SizeBytes() int
}

// DataSummary is the full-data baseline: the raw array plus the binning
// that the metric computations use (identical binning to the bitmap path,
// which is why both paths select identical steps).
type DataSummary struct {
	Data []float64
	M    binning.Mapper

	hist []int // lazily cached marginal histogram
}

// NewDataSummary wraps a raw time-step array.
func NewDataSummary(data []float64, m binning.Mapper) *DataSummary {
	return &DataSummary{Data: data, M: m}
}

func (s *DataSummary) histogram() []int {
	if s.hist == nil {
		s.hist = metrics.Histogram(s.Data, s.M)
	}
	return s.hist
}

// Dissimilarity implements Summary by scanning both raw arrays.
func (s *DataSummary) Dissimilarity(selected Summary, m Metric) float64 {
	o, ok := selected.(*DataSummary)
	if !ok {
		panic(fmt.Sprintf("selection: DataSummary compared against %T", selected))
	}
	switch m {
	case ConditionalEntropy:
		p := metrics.PairFromData(s.Data, o.Data, s.M, o.M)
		return p.CondEntropyAB
	case EMDCount:
		return metrics.EMDCount(s.histogram(), o.histogram())
	case EMDSpatial:
		return metrics.EMDSpatialData(s.Data, o.Data, s.M)
	default:
		panic("selection: unknown metric " + m.String())
	}
}

// Importance implements Summary.
func (s *DataSummary) Importance() float64 {
	return metrics.Entropy(s.histogram(), len(s.Data))
}

// SizeBytes implements Summary: 8 bytes per float64.
func (s *DataSummary) SizeBytes() int { return 8 * len(s.Data) }

// BitmapSummary is the paper's method: only the compressed index is kept;
// the raw data has been discarded.
type BitmapSummary struct {
	X *index.Index

	// Workers is how many goroutines one score of this summary may use to
	// decode and tally; below 2 it runs on the caller's. The in-situ reducer
	// sets it to the cores the step was given. More than one needs an index
	// built in this process (index.DecodeBinIDs).
	Workers int

	// X in decoded form, one narrow bin id per element, which is what the
	// conditional-entropy and spatial-EMD scores pass over. Either the build
	// that produced X emitted it (NewBuiltSummary) or the first such score
	// decodes it from X's bitmaps; it then stays on the summary until
	// DropIDs, so a kept step scored against a whole interval of candidates
	// is decoded at most once.
	mu  sync.Mutex
	ids *index.BinIDs
}

// NewBitmapSummary wraps a built index; its scores run on one goroutine.
func NewBitmapSummary(x *index.Index) *BitmapSummary { return &BitmapSummary{X: x} }

// NewBuiltSummary wraps an index together with the ids its build emitted
// (index.BuildParallelCodecIDs; nil ids are decoded on demand) and the
// worker count its scores may use.
func NewBuiltSummary(x *index.Index, ids *index.BinIDs, workers int) *BitmapSummary {
	return &BitmapSummary{X: x, Workers: workers, ids: ids}
}

// binIDs returns the summary's ids, decoding them on first use.
func (s *BitmapSummary) binIDs() *index.BinIDs {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ids == nil {
		s.ids = index.DecodeBinIDs(s.X, s.Workers)
	}
	return s.ids
}

// DropIDs releases the summary's ids; the next score that reads them
// decodes them from X again, to the same bytes.
func (s *BitmapSummary) DropIDs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ids = nil
}

// Dissimilarity implements Summary on the compressed form.
func (s *BitmapSummary) Dissimilarity(selected Summary, m Metric) float64 {
	o, ok := selected.(*BitmapSummary)
	if !ok {
		panic(fmt.Sprintf("selection: BitmapSummary compared against %T", selected))
	}
	switch m {
	case ConditionalEntropy:
		joint := metrics.JointFromIDs(s.binIDs(), o.binIDs(), s.Workers)
		return metrics.ConditionalEntropy(joint, s.X.Histogram(), o.X.Histogram(), s.X.N())
	case EMDCount:
		return metrics.EMDCount(s.X.Histogram(), o.X.Histogram())
	case EMDSpatial:
		return metrics.EMDSpatialFromIDs(s.binIDs(), o.binIDs())
	default:
		panic("selection: unknown metric " + m.String())
	}
}

// Importance implements Summary from the cached histogram.
func (s *BitmapSummary) Importance() float64 {
	return metrics.Entropy(s.X.Histogram(), s.X.N())
}

// SizeBytes implements Summary: the compressed index plus the ids the
// summary holds so far.
func (s *BitmapSummary) SizeBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.X.SizeBytes() + s.ids.SizeBytes()
}

// Partitioner splits steps 1..n-1 (step 0 is always pre-selected, as in the
// paper's Figure 3) into k-1 intervals, returning half-open [lo, hi) pairs.
type Partitioner interface {
	Partition(importance []float64, k int) [][2]int
}

// FixedLength gives every interval the same number of steps (±1).
type FixedLength struct{}

// Partition implements Partitioner.
func (FixedLength) Partition(importance []float64, k int) [][2]int {
	n := len(importance)
	if k <= 1 || n <= 1 {
		return nil
	}
	intervals := k - 1
	remaining := n - 1
	if intervals > remaining {
		intervals = remaining
	}
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

// InfoVolume balances the *accumulated importance* (entropy) per interval,
// the paper's "information-volume based partitioning": busy phases of the
// simulation get more intervals, quiet ones fewer.
type InfoVolume struct{}

// Partition implements Partitioner.
func (InfoVolume) Partition(importance []float64, k int) [][2]int {
	n := len(importance)
	if k <= 1 || n <= 1 {
		return nil
	}
	intervals := k - 1
	if intervals > n-1 {
		intervals = n - 1
	}
	total := 0.0
	for _, v := range importance[1:] {
		total += v
	}
	out := make([][2]int, 0, intervals)
	pos := 1
	acc := 0.0
	for i := 0; i < intervals; i++ {
		target := total * float64(i+1) / float64(intervals)
		hi := pos
		// Extend until the cumulative importance reaches this interval's
		// share, but always leave enough steps for the remaining intervals.
		for hi < n-(intervals-i-1) && (acc < target || hi == pos) {
			acc += importance[hi]
			hi++
		}
		out = append(out, [2]int{pos, hi})
		pos = hi
	}
	out[len(out)-1][1] = n // absorb any rounding remainder
	return out
}

// Result reports what Select chose and why.
type Result struct {
	// Selected holds the chosen step indices in ascending order; index 0 is
	// always included.
	Selected []int
	// Intervals are the partitions the greedy pass walked.
	Intervals [][2]int
	// Scores[i] is the winning dissimilarity of Selected[i+1] within its
	// interval (the pre-selected step 0 has no score).
	Scores []float64
}

// Select runs the greedy algorithm: keep step 0, then per interval keep the
// step with maximum dissimilarity to the previously selected step.
// It returns an error if the request is malformed.
func Select(steps []Summary, k int, p Partitioner, m Metric) (*Result, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("selection: no steps")
	}
	if k < 1 || k > len(steps) {
		return nil, fmt.Errorf("selection: k=%d out of range [1,%d]", k, len(steps))
	}
	imp := make([]float64, len(steps))
	if _, ok := p.(InfoVolume); ok { // only info-volume needs importances
		for i, s := range steps {
			imp[i] = s.Importance()
		}
	}
	res := &Result{Selected: []int{0}, Intervals: p.Partition(imp, k)}
	prev := steps[0]
	for _, iv := range res.Intervals {
		best, bestScore := -1, 0.0
		for i := iv[0]; i < iv[1]; i++ {
			score := steps[i].Dissimilarity(prev, m)
			if best == -1 || score > bestScore {
				best, bestScore = i, score
			}
		}
		if best == -1 {
			continue
		}
		res.Selected = append(res.Selected, best)
		res.Scores = append(res.Scores, bestScore)
		prev = steps[best]
	}
	return res, nil
}

// PairwiseScores evaluates the metric between every ordered pair of steps;
// the sampling-accuracy experiments (Figure 16) compare these matrices
// between the exact and the approximated summaries.
func PairwiseScores(steps []Summary, m Metric) []float64 {
	var out []float64
	for i := range steps {
		for j := range steps {
			if i == j {
				continue
			}
			out = append(out, steps[i].Dissimilarity(steps[j], m))
		}
	}
	return out
}
