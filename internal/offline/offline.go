// Package offline loads what the in-situ pipeline persisted (the paper's
// step 4: "aggressive analyses, visualization, and exploration, but using
// only the summarized data") and drives post-hoc analyses over it: pairwise
// metrics between the archived steps, re-selection with the DP algorithm,
// value queries and aggregation — all from the bitmap files, since the
// original data no longer exists.
package offline

import (
	"bytes"
	"fmt"
	"strings"

	"insitubits/internal/index"
	"insitubits/internal/insitu"
	"insitubits/internal/metrics"
	"insitubits/internal/selection"
	"insitubits/internal/store"
)

// Archive is the committed steps of a pipeline output directory.
type Archive struct {
	steps []int
	vars  []string
	// indices[step][var] — only present for bitmap archives.
	indices map[int]map[string]*index.Index
	// raws[step][var] — for full-data / sampling archives.
	raws map[int]map[string][]float64
}

// Load reads every step dir's journal commits — a finished run's whole
// selection, or the committed prefix of one that crashed — each artifact
// checked against its journaled length and CRC32C before it is parsed. A
// damaged journal, a journal that commits nothing, or a committed artifact
// that fails its check is an error; the archive never drops a step
// (`bitmapctl fsck -repair` does that).
func Load(dir string) (*Archive, error) {
	log, err := insitu.ReadRunLog(dir)
	if err != nil {
		return nil, err
	}
	if log.Damage != nil {
		return nil, fmt.Errorf("offline: %s: %w", dir, log.Damage)
	}
	committed := log.Committed()
	if len(committed) == 0 {
		return nil, fmt.Errorf("offline: %s: the journal commits no step", dir)
	}
	a := &Archive{
		vars:    log.Begin.Vars,
		indices: map[int]map[string]*index.Index{},
		raws:    map[int]map[string][]float64{},
	}
	for _, rec := range committed {
		a.steps = append(a.steps, rec.Step)
		for _, jf := range rec.Files {
			data, err := insitu.ReadArtifact(dir, jf)
			if err != nil {
				return nil, fmt.Errorf("offline: %w", err)
			}
			switch {
			case strings.HasSuffix(jf.Path, ".isbm"):
				x, err := store.ReadIndex(bytes.NewReader(data))
				if err != nil {
					return nil, fmt.Errorf("offline: %s: %w", jf.Path, err)
				}
				if a.indices[rec.Step] == nil {
					a.indices[rec.Step] = map[string]*index.Index{}
				}
				a.indices[rec.Step][jf.Var] = x
			case strings.HasSuffix(jf.Path, ".israw"):
				raw, err := store.ReadRaw(bytes.NewReader(data))
				if err != nil {
					return nil, fmt.Errorf("offline: %s: %w", jf.Path, err)
				}
				if a.raws[rec.Step] == nil {
					a.raws[rec.Step] = map[string][]float64{}
				}
				a.raws[rec.Step][jf.Var] = raw
			default:
				return nil, fmt.Errorf("offline: unknown artifact type %q", jf.Path)
			}
		}
	}
	return a, nil
}

// Steps returns the archived step numbers in ascending order.
func (a *Archive) Steps() []int { return append([]int(nil), a.steps...) }

// Vars returns the archived variable names.
func (a *Archive) Vars() []string { return append([]string(nil), a.vars...) }

// IsBitmaps reports whether the archive holds indices (vs raw arrays).
func (a *Archive) IsBitmaps() bool { return len(a.indices) > 0 }

// Index returns the bitmap index of one (step, variable).
func (a *Archive) Index(step int, varName string) (*index.Index, error) {
	vars, ok := a.indices[step]
	if !ok {
		return nil, fmt.Errorf("offline: step %d not archived as bitmaps", step)
	}
	x, ok := vars[varName]
	if !ok {
		return nil, fmt.Errorf("offline: step %d has no variable %q", step, varName)
	}
	return x, nil
}

// Raw returns the raw array of one (step, variable) for full-data archives.
func (a *Archive) Raw(step int, varName string) ([]float64, error) {
	vars, ok := a.raws[step]
	if !ok {
		return nil, fmt.Errorf("offline: step %d not archived as raw data", step)
	}
	data, ok := vars[varName]
	if !ok {
		return nil, fmt.Errorf("offline: step %d has no variable %q", step, varName)
	}
	return data, nil
}

// PairwiseMetrics computes the full pairwise metric matrix between archived
// steps over one variable. scores[i][j] holds the metrics of (step i, step
// j) in Steps() order; the diagonal is zero-valued.
func (a *Archive) PairwiseMetrics(varName string) ([][]metrics.Pair, error) {
	if !a.IsBitmaps() {
		return nil, fmt.Errorf("offline: pairwise metrics need a bitmap archive")
	}
	steps := a.Steps()
	out := make([][]metrics.Pair, len(steps))
	for i := range out {
		out[i] = make([]metrics.Pair, len(steps))
		xi, err := a.Index(steps[i], varName)
		if err != nil {
			return nil, err
		}
		for j := range out[i] {
			if i == j {
				continue
			}
			xj, err := a.Index(steps[j], varName)
			if err != nil {
				return nil, err
			}
			out[i][j] = metrics.PairFromBitmaps(xi, xj)
		}
	}
	return out, nil
}

// Reselect re-ranks the archived steps offline with the DP selection (the
// luxury the in-situ pass cannot afford), returning archive positions of
// the k steps maximizing the dissimilarity chain.
func (a *Archive) Reselect(varName string, k int, m selection.Metric) ([]int, error) {
	if !a.IsBitmaps() {
		return nil, fmt.Errorf("offline: reselection needs a bitmap archive")
	}
	steps := a.Steps()
	summaries := make([]selection.Summary, len(steps))
	for i, s := range steps {
		x, err := a.Index(s, varName)
		if err != nil {
			return nil, err
		}
		summaries[i] = selection.NewBitmapSummary(x)
	}
	res, err := selection.SelectDP(summaries, k, m)
	if err != nil {
		return nil, err
	}
	picked := make([]int, len(res.Selected))
	for i, pos := range res.Selected {
		picked[i] = steps[pos]
	}
	return picked, nil
}

// Evolution summarizes how one variable's distribution evolved across the
// archived steps: per-step entropy plus the metric against the previous
// archived step.
type Evolution struct {
	Step        int
	Entropy     float64
	CondEntropy float64 // H(this | previous archived); 0 for the first
	EMD         float64 // count-EMD against the previous archived step
}

// Evolve computes the evolution series for one variable.
func (a *Archive) Evolve(varName string) ([]Evolution, error) {
	if !a.IsBitmaps() {
		return nil, fmt.Errorf("offline: evolution needs a bitmap archive")
	}
	steps := a.Steps()
	out := make([]Evolution, len(steps))
	var prev *index.Index
	for i, s := range steps {
		x, err := a.Index(s, varName)
		if err != nil {
			return nil, err
		}
		out[i] = Evolution{Step: s, Entropy: metrics.Entropy(x.Histogram(), x.N())}
		if prev != nil {
			p := metrics.PairFromBitmaps(x, prev)
			out[i].CondEntropy = p.CondEntropyAB
			out[i].EMD = metrics.EMDCount(x.Histogram(), prev.Histogram())
		}
		prev = x
	}
	return out, nil
}
