// Package query implements the bitmap-only analyses the paper builds on
// (§2.2, §4.1, citing the authors' companion work [2, 30, 38, 39]):
// value/spatial subset selection, approximate aggregation with rigorous
// bin-edge error bounds, interactive correlation queries over subsets, and
// incomplete-data handling via validity masks. Everything here consumes
// only indices — the raw data may already have been discarded by the
// in-situ pipeline.
package query

import (
	"context"
	"fmt"
	"math"

	"insitubits/internal/bitvec"
	"insitubits/internal/index"
	"insitubits/internal/metrics"
)

// Subset selects elements by value range and/or element (spatial) range.
// Zero values mean "unbounded": an all-zero Subset selects everything.
type Subset struct {
	// ValueLo/ValueHi restrict to elements whose value lies in
	// [ValueLo, ValueHi) at bin granularity, ValueLo < ValueHi, unless both
	// are 0 (no restriction).
	ValueLo, ValueHi float64
	// SpatialLo/SpatialHi restrict to element positions [SpatialLo,
	// SpatialHi), 0 ≤ SpatialLo < SpatialHi ≤ n, unless both are 0 (no
	// restriction). With the tiled Z-order layout a tile-aligned range
	// is a union of 8³ cubes; an arbitrary range need not be a box.
	SpatialLo, SpatialHi int
}

func (s Subset) hasValue() bool   { return s.ValueHi > s.ValueLo }
func (s Subset) hasSpatial() bool { return s.SpatialHi > s.SpatialLo }

func (s Subset) validate(n int) error {
	if (s.ValueLo != 0 || s.ValueHi != 0) && !(s.ValueLo < s.ValueHi) {
		return fmt.Errorf("query: value range [%g,%g) is empty, inverted or NaN", s.ValueLo, s.ValueHi)
	}
	if (s.SpatialLo != 0 || s.SpatialHi != 0) && (s.SpatialLo < 0 || s.SpatialLo >= s.SpatialHi || s.SpatialHi > n) {
		return fmt.Errorf("query: spatial range [%d,%d) is empty or outside [0,%d)", s.SpatialLo, s.SpatialHi, n)
	}
	return nil
}

// spatialBounds returns the effective element range.
func (s Subset) spatialBounds(n int) (lo, hi int) {
	if s.hasSpatial() {
		return s.SpatialLo, s.SpatialHi
	}
	return 0, n
}

func (s Subset) describe() string {
	switch {
	case s.hasValue() && s.hasSpatial():
		return fmt.Sprintf("value=[%g,%g) spatial=[%d,%d)", s.ValueLo, s.ValueHi, s.SpatialLo, s.SpatialHi)
	case s.hasValue():
		return fmt.Sprintf("value=[%g,%g)", s.ValueLo, s.ValueHi)
	case s.hasSpatial():
		return fmt.Sprintf("spatial=[%d,%d)", s.SpatialLo, s.SpatialHi)
	default:
		return "all"
	}
}

// binSelected reports whether bin b overlaps the value range.
func (s Subset) binSelected(x *index.Index, b int) bool {
	if !s.hasValue() {
		return true
	}
	return x.Mapper().High(b) > s.ValueLo && x.Mapper().Low(b) < s.ValueHi
}

// occupiedBins lists the bins the value range selects that hold at least
// one element.
func (s Subset) occupiedBins(x *index.Index) []int {
	var bins []int
	for b := 0; b < x.Bins(); b++ {
		if s.binSelected(x, b) && x.Count(b) > 0 {
			bins = append(bins, b)
		}
	}
	return bins
}

// The typed entry points. Each is a Request through the one execution
// funnel (request.go); its *Analyze twin is the same Request asking for the
// measured operator profile, which is also offered to the slow-query log.
//
// Every entry point takes a context: when it carries a trace span (or a
// process-wide trace recorder is installed), the query records an
// identity-carrying span tree retrievable from /debug/traces, and its
// deadline or cancellation stops execution between operators. Pass
// context.Background() when neither matters — the disabled path is a single
// atomic load, covered by the gated overhead guard.

// Bits materializes the subset as a bitvector over the index's elements.
func Bits(ctx context.Context, x *index.Index, s Subset) (bitvec.Bitmap, error) {
	a, _, err := run(ctx, Request{Op: OpBits, A: s}, x, nil, nil, acctNone)
	return a.Bits, err
}

// BitsAnalyze is Bits with a measured profile.
func BitsAnalyze(ctx context.Context, x *index.Index, s Subset) (bitvec.Bitmap, *Profile, error) {
	a, p, err := run(ctx, Request{Op: OpBits, A: s}, x, nil, nil, acctFull)
	return a.Bits, p, err
}

// Aggregate is the result of an approximate aggregation: the estimate uses
// bin midpoints, and [Lo, Hi] are *rigorous* bounds derived from bin edges
// — the true (full-data) value is guaranteed to lie inside them, which is
// the form of approximation the paper's companion aggregation work trades
// for never touching the raw data.
type Aggregate struct {
	Count    int
	Estimate float64
	Lo, Hi   float64
}

// Count returns the exact number of subset elements (counting is exact on
// bitmaps; only value reconstruction is approximate).
func Count(ctx context.Context, x *index.Index, s Subset) (int, error) {
	a, _, err := run(ctx, Request{Op: OpCount, A: s}, x, nil, nil, acctNone)
	return a.Count, err
}

// CountAnalyze is Count with a measured profile.
func CountAnalyze(ctx context.Context, x *index.Index, s Subset) (int, *Profile, error) {
	a, p, err := run(ctx, Request{Op: OpCount, A: s}, x, nil, nil, acctFull)
	return a.Count, p, err
}

// Sum estimates the subset's value sum.
func Sum(ctx context.Context, x *index.Index, s Subset) (Aggregate, error) {
	a, _, err := run(ctx, Request{Op: OpSum, A: s}, x, nil, nil, acctNone)
	return a.Agg, err
}

// SumAnalyze is Sum with a measured profile.
func SumAnalyze(ctx context.Context, x *index.Index, s Subset) (Aggregate, *Profile, error) {
	a, p, err := run(ctx, Request{Op: OpSum, A: s}, x, nil, nil, acctFull)
	return a.Agg, p, err
}

// SumMasked aggregates the values of the elements selected by an arbitrary
// bitvector mask — the building block for analyses whose selections are
// produced by bitwise combinations (subgroup discovery, incomplete data).
func SumMasked(ctx context.Context, x *index.Index, mask bitvec.Bitmap) (Aggregate, error) {
	a, _, err := run(ctx, Request{Op: opSumMasked}, x, nil, mask, acctNone)
	return a.Agg, err
}

// MeanMasked is SumMasked divided by the selected count.
func MeanMasked(ctx context.Context, x *index.Index, mask bitvec.Bitmap) (Aggregate, error) {
	sum, err := SumMasked(ctx, x, mask)
	return sum.mean(), err
}

// Mean estimates the subset's average value.
func Mean(ctx context.Context, x *index.Index, s Subset) (Aggregate, error) {
	a, _, err := run(ctx, Request{Op: OpMean, A: s}, x, nil, nil, acctNone)
	return a.Agg, err
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the subset's values,
// bounded by the edges of the bin the quantile falls into: the true
// quantile of the discarded data is guaranteed inside [Lo, Hi].
func Quantile(ctx context.Context, x *index.Index, s Subset, q float64) (Aggregate, error) {
	a, _, err := run(ctx, Request{Op: OpQuantile, A: s, Q: q}, x, nil, nil, acctNone)
	return a.Agg, err
}

// QuantileAnalyze is Quantile with a measured profile.
func QuantileAnalyze(ctx context.Context, x *index.Index, s Subset, q float64) (Aggregate, *Profile, error) {
	a, p, err := run(ctx, Request{Op: OpQuantile, A: s, Q: q}, x, nil, nil, acctFull)
	return a.Agg, p, err
}

// MinMax returns bin-edge bounds on the subset's extreme values: the true
// minimum lies in [Aggregate.Lo, Aggregate.Estimate] of min (and similarly
// for max), where Estimate is the midpoint of the extreme occupied bin.
func MinMax(ctx context.Context, x *index.Index, s Subset) (min, max Aggregate, err error) {
	a, _, err := run(ctx, Request{Op: OpMinMax, A: s}, x, nil, nil, acctNone)
	return a.Min, a.Max, err
}

// MinMaxAnalyze is MinMax with a measured profile.
func MinMaxAnalyze(ctx context.Context, x *index.Index, s Subset) (min, max Aggregate, p *Profile, err error) {
	a, p, err := run(ctx, Request{Op: OpMinMax, A: s}, x, nil, nil, acctFull)
	return a.Min, a.Max, p, err
}

// Correlation answers the paper's §4.1 interactive correlation query: the
// mutual information (and related metrics) between two variables restricted
// to a subset — value ranges apply per variable, the spatial range applies
// to both. It touches only bitmaps.
func Correlation(ctx context.Context, xa, xb *index.Index, sa, sb Subset) (metrics.Pair, error) {
	a, _, err := run(ctx, Request{Op: OpCorrelation, A: sa, B: sb}, xa, xb, nil, acctNone)
	return a.Pair, err
}

// CorrelationAnalyze is Correlation with a measured profile.
func CorrelationAnalyze(ctx context.Context, xa, xb *index.Index, sa, sb Subset) (metrics.Pair, *Profile, error) {
	a, p, err := run(ctx, Request{Op: OpCorrelation, A: sa, B: sb}, xa, xb, nil, acctFull)
	return a.Pair, p, err
}

// Masked wraps an index together with a validity bitvector for
// incomplete-data analysis (companion work [2]): positions whose bit is 0
// are missing and excluded from every aggregate.
type Masked struct {
	X     *index.Index
	Valid bitvec.Bitmap
}

// NewMasked pairs an index with its validity mask.
func NewMasked(x *index.Index, valid bitvec.Bitmap) (*Masked, error) {
	if valid.Len() != x.N() {
		return nil, fmt.Errorf("query: mask covers %d bits for %d elements", valid.Len(), x.N())
	}
	return &Masked{X: x, Valid: valid}, nil
}

// Missing returns how many elements are invalid.
func (m *Masked) Missing() int { return m.X.N() - m.Valid.Count() }

// Sum aggregates over valid elements only.
func (m *Masked) Sum(ctx context.Context, s Subset) (Aggregate, error) {
	a, _, err := run(ctx, Request{Op: opMaskedSum, A: s}, m.X, nil, m.Valid, acctNone)
	return a.Agg, err
}

// SumAnalyze is Masked.Sum with a measured profile.
func (m *Masked) SumAnalyze(ctx context.Context, s Subset) (Aggregate, *Profile, error) {
	a, p, err := run(ctx, Request{Op: opMaskedSum, A: s}, m.X, nil, m.Valid, acctFull)
	return a.Agg, p, err
}

// Impute estimates missing values from the valid value distribution inside
// a window around each gap (a simplified form of the bitmap-based
// imputation of [2]): the estimate for a missing position is the mean
// estimate of the valid elements in the surrounding window.
func (m *Masked) Impute(window int) ([]float64, error) {
	if window < 1 {
		return nil, fmt.Errorf("query: imputation window %d must be positive", window)
	}
	n := m.X.N()
	out := make([]float64, n)
	// Valid elements reconstruct to their bin midpoint.
	ids := index.DecodeBinIDs(m.X, 1)
	mid := make([]float64, m.X.Bins())
	for b := 0; b < m.X.Bins(); b++ {
		mid[b] = (m.X.Mapper().Low(b) + m.X.Mapper().High(b)) / 2
	}
	// The mask is decoded once into flat words: a per-position read of the
	// compressed form walks it from the start, which is quadratic in n.
	valid := make([]uint64, bitvec.FlatWords(n))
	m.Valid.OrInto(valid, 0, len(valid))
	isValid := func(i int) bool { return valid[i>>6]&(1<<uint(i&63)) != 0 }
	for i := 0; i < n; i++ {
		if isValid(i) {
			out[i] = mid[ids.At(i)]
			continue
		}
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > n {
			hi = n
		}
		sum, cnt := 0.0, 0
		for j := lo; j < hi; j++ {
			if isValid(j) {
				sum += mid[ids.At(j)]
				cnt++
			}
		}
		if cnt > 0 {
			out[i] = sum / float64(cnt)
		} else {
			out[i] = math.NaN() // no information in the window
		}
	}
	return out, nil
}
