// Package selection implements the paper's online analysis: importance-
// driven time-step selection (§3). The greedy algorithm of Wang et al. —
// partition the time-steps into fixed-length intervals, then per interval
// keep the step least correlated with the previously selected one — is one
// streaming Greedy, fed by Select, the in-situ pipeline, its resume and the
// cluster run. It runs over an abstract Summary, so the same code drives
// the full-data baseline, the bitmap path (a run stream in situ, an index
// read from a file offline), the sampling baseline and a step distributed
// over nodes (NodeSummary); only the metric evaluation differs.
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

// Valid reports whether m is one of the three metrics.
func (m Metric) Valid() bool { return m >= ConditionalEntropy && m <= EMDSpatial }

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

// runs maps the array and scans it for a NodeSummary's score.
func (s *DataSummary) runs() *index.Runs { return index.ScanIDs(index.MapIDs(s.Data, s.M, 1), s.M, 1) }
func (s *DataSummary) len() int          { return len(s.Data) }

// SizeBytes implements Summary: 8 bytes per float64.
func (s *DataSummary) SizeBytes() int { return 8 * len(s.Data) }

// RunSummary is the paper's method as the in-situ pipeline holds a step
// while it waits for selection: one array's bin ids as their run stream
// (index.Runs), the histogram the stream sums to, and its length; the raw
// data has been discarded. The stream is the bitmaps' content in run-length
// form, so it scores exactly as the bitmaps do, and the bitmaps are made
// from it (index.FromRuns) only for a step that is written.
type RunSummary struct {
	Runs    *index.Runs
	hist    []int
	workers int
}

// NewRunSummary wraps a step's run stream; workers is how many goroutines
// one score of it may merge over (below 2, the caller's).
func NewRunSummary(r *index.Runs, workers int) *RunSummary {
	return &RunSummary{Runs: r, hist: r.Histogram(), workers: workers}
}

// Dissimilarity implements Summary by merging the two run streams: the
// scorer of a one-node step, its joint counts merged over the summary's
// workers.
func (s *RunSummary) Dissimilarity(selected Summary, m Metric) float64 {
	o, ok := selected.(*RunSummary)
	if !ok {
		panic(fmt.Sprintf("selection: RunSummary compared against %T", selected))
	}
	return score([]nodePart{s}, []nodePart{o}, m, s.workers)
}

func (s *RunSummary) histogram() []int  { return s.hist }
func (s *RunSummary) runs() *index.Runs { return s.Runs }
func (s *RunSummary) len() int          { return s.Runs.Len() }

// SizeBytes implements Summary: the run stream.
func (s *RunSummary) SizeBytes() int { return s.Runs.SizeBytes() }

// BitmapSummary is the paper's method over an index read from a file: only
// the compressed index is kept. The conditional-entropy and spatial-EMD
// scores merge run streams; the first such score decodes X's ids and scans
// them once, and the stream then stays with the summary, a fraction of the
// ids' size, so a kept step is decoded at most once however many candidates
// are scored against it.
type BitmapSummary struct {
	X *index.Index

	mu sync.Mutex
	rs *index.Runs
}

// NewBitmapSummary wraps a built index; its scores run on one goroutine.
func NewBitmapSummary(x *index.Index) *BitmapSummary { return &BitmapSummary{X: x} }

// runs returns the summary's run stream, decoding it on first use.
func (s *BitmapSummary) runs() *index.Runs {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rs == nil {
		s.rs = index.ScanIDs(index.DecodeBinIDs(s.X, 1), s.X.Mapper(), 1)
	}
	return s.rs
}

// Dissimilarity implements Summary on the compressed form.
func (s *BitmapSummary) Dissimilarity(selected Summary, m Metric) float64 {
	o, ok := selected.(*BitmapSummary)
	if !ok {
		panic(fmt.Sprintf("selection: BitmapSummary compared against %T", selected))
	}
	return score([]nodePart{s}, []nodePart{o}, m, 1)
}

func (s *BitmapSummary) histogram() []int { return s.X.Histogram() }
func (s *BitmapSummary) len() int         { return s.X.N() }

// SizeBytes implements Summary: the compressed index plus the run stream
// the summary holds so far.
func (s *BitmapSummary) SizeBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.X.SizeBytes() + s.rs.SizeBytes()
}

// NodeSummary is one time-step distributed over nodes (§5.3, Figure 2): a
// *RunSummary, *BitmapSummary or *DataSummary per node over the node's own
// elements, in the same node order at every step.
type NodeSummary struct {
	Parts []Summary
}

// Dissimilarity scores this step against a previously selected one, as
// Summary.Dissimilarity does, without moving any node's data.
func (s *NodeSummary) Dissimilarity(o *NodeSummary, m Metric) float64 {
	a, b := make([]nodePart, len(s.Parts)), make([]nodePart, len(s.Parts))
	for k := range s.Parts {
		a[k], b[k] = s.Parts[k].(nodePart), o.Parts[k].(nodePart)
	}
	return score(a, b, m, 1)
}

// nodePart is what the scorer reads of one node's summary.
type nodePart interface {
	histogram() []int
	runs() *index.Runs
	len() int
}

// score is the scorer of bitmap and distributed steps: node k holds a[k]
// of the scored step and b[k] of the selected one. Every node pair adds its
// marginals, its element count and, merging the two run streams, its joint
// counts (conditional entropy) or Equation 3's differences (spatial EMD)
// into one table, and the metric is computed once from the sums, which are
// the whole array's. A one-node step reads its marginals in place and may
// merge its joint counts over workers goroutines; a step of several nodes
// merges on the caller's.
func score(a, b []nodePart, m Metric, workers int) float64 {
	ha, hb, n := a[0].histogram(), b[0].histogram(), 0
	if len(a) > 1 {
		ha, hb = make([]int, len(ha)), make([]int, len(hb))
		for k := range a {
			for i, v := range a[k].histogram() {
				ha[i] += v
			}
			for j, v := range b[k].histogram() {
				hb[j] += v
			}
		}
	}
	for _, p := range a {
		n += p.len()
	}
	switch m {
	case ConditionalEntropy:
		workers = max(1, min(workers, n))
		cells, joint := make([]int, workers*len(ha)*len(hb)), make([][]int, len(ha))
		for k := range a {
			metrics.AddJointRuns(a[k].runs(), b[k].runs(), cells, workers)
		}
		for i := range joint {
			joint[i] = cells[i*len(hb) : (i+1)*len(hb)]
		}
		return metrics.ConditionalEntropy(joint, ha, hb, n)
	case EMDCount:
		return metrics.EMDCount(ha, hb)
	case EMDSpatial:
		diffs := make([]int, len(ha))
		for k := range a {
			metrics.AddSpatialDiffsRuns(a[k].runs(), b[k].runs(), diffs)
		}
		return metrics.EMDFromDiffs(diffs)
	default:
		panic("selection: unknown metric " + m.String())
	}
}
