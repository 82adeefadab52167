// Package binning defines how raw floating-point values map onto the bins
// (bitvectors) of a bitmap index. The paper bins float data to keep the
// number of bitvectors manageable (§2.1) and stresses that, because the
// full-data analyses bin identically, the bitmap path loses no accuracy.
// Binning here is therefore a first-class, shared component: the same
// Mapper drives both the index build and the full-data baselines.
package binning

import (
	"fmt"
	"math"
	"sort"
)

// Mapper assigns every value to exactly one bin in [0, Bins()).
type Mapper interface {
	// Bin returns the bin id for v. Values outside the configured range
	// clamp to the first or last bin, so every value has a home.
	Bin(v float64) int
	// Bins returns the number of bins.
	Bins() int
	// Low and High return the value range covered by bin b; bins tile
	// [Low(0), High(Bins()-1)) left-closed.
	Low(b int) float64
	High(b int) float64
}

// Uniform maps values into equal-width bins over [Min, Max].
type Uniform struct {
	Min, Max float64
	N        int
	width    float64
	invWidth float64 // multiplication beats division in the Bin hot path
}

// NewUniform builds a uniform mapper with n bins over [min, max].
func NewUniform(min, max float64, n int) (*Uniform, error) {
	if n <= 0 {
		return nil, fmt.Errorf("binning: bin count %d must be positive", n)
	}
	if !(min < max) {
		return nil, fmt.Errorf("binning: invalid range [%g, %g]", min, max)
	}
	w := (max - min) / float64(n)
	return &Uniform{Min: min, Max: max, N: n, width: w, invWidth: 1 / w}, nil
}

// Bin implements Mapper with clamping at both ends. Bin is the single
// hottest call of the full-data paths (once per element per scan), hence
// the reciprocal multiply.
func (u *Uniform) Bin(v float64) int {
	if v <= u.Min {
		return 0
	}
	if v >= u.Max {
		return u.N - 1
	}
	b := int((v - u.Min) * u.invWidth)
	if b >= u.N { // guard against FP rounding at the top edge
		b = u.N - 1
	}
	if b < 0 { // NaN converts to an arbitrary int; map it to bin 0
		b = 0
	}
	return b
}

// Bins implements Mapper.
func (u *Uniform) Bins() int { return u.N }

// Low implements Mapper.
func (u *Uniform) Low(b int) float64 { return u.Min + float64(b)*u.width }

// High implements Mapper.
func (u *Uniform) High(b int) float64 { return u.Min + float64(b+1)*u.width }

// Explicit maps values by binary search over caller-provided edges:
// bin b covers [Edges[b], Edges[b+1]).
type Explicit struct {
	Edges []float64 // strictly increasing, len = Bins()+1
}

// NewExplicit validates and wraps an edge slice.
func NewExplicit(edges []float64) (*Explicit, error) {
	if len(edges) < 2 {
		return nil, fmt.Errorf("binning: need at least 2 edges, got %d", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i-1] < edges[i]) {
			return nil, fmt.Errorf("binning: edges not strictly increasing at %d", i)
		}
	}
	return &Explicit{Edges: append([]float64(nil), edges...)}, nil
}

// Bin implements Mapper via binary search with clamping.
func (e *Explicit) Bin(v float64) int {
	lo, hi := 0, len(e.Edges)-1 // invariant: answer in [lo, hi)
	if v < e.Edges[0] {
		return 0
	}
	if v >= e.Edges[hi] {
		return hi - 1
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if v >= e.Edges[mid] {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Bins implements Mapper.
func (e *Explicit) Bins() int { return len(e.Edges) - 1 }

// Low implements Mapper.
func (e *Explicit) Low(b int) float64 { return e.Edges[b] }

// High implements Mapper.
func (e *Explicit) High(b int) float64 { return e.Edges[b+1] }

// Grouped coarsens a base mapper by fusing `fanout` consecutive base bins
// into one, producing the paper's high-level (interval) bins of Figure 1.
type Grouped struct {
	Base   Mapper
	Fanout int
	n      int
}

// NewGrouped wraps base so that high-level bin h covers base bins
// [h*fanout, min((h+1)*fanout, base.Bins())).
func NewGrouped(base Mapper, fanout int) (*Grouped, error) {
	if fanout <= 0 {
		return nil, fmt.Errorf("binning: fanout %d must be positive", fanout)
	}
	n := (base.Bins() + fanout - 1) / fanout
	return &Grouped{Base: base, Fanout: fanout, n: n}, nil
}

// Bin implements Mapper.
func (g *Grouped) Bin(v float64) int { return g.Base.Bin(v) / g.Fanout }

// Bins implements Mapper.
func (g *Grouped) Bins() int { return g.n }

// Low implements Mapper.
func (g *Grouped) Low(b int) float64 { return g.Base.Low(b * g.Fanout) }

// High implements Mapper.
func (g *Grouped) High(b int) float64 {
	last := (b+1)*g.Fanout - 1
	if last >= g.Base.Bins() {
		last = g.Base.Bins() - 1
	}
	return g.Base.High(last)
}

// Children returns the base-bin range [lo, hi) fused into high-level bin h.
func (g *Grouped) Children(h int) (lo, hi int) {
	lo = h * g.Fanout
	hi = lo + g.Fanout
	if hi > g.Base.Bins() {
		hi = g.Base.Bins()
	}
	return lo, hi
}

// NewEquiDepth builds an explicit mapper whose bins hold (approximately)
// equally many of the sample's values — useful when the value distribution
// is heavily skewed and uniform bins would leave most bitvectors empty
// (the flip side of the paper's §5.4 note that bin count/placement trades
// precision against cost for both the bitmap and full-data methods).
// The sample is not retained.
func NewEquiDepth(sample []float64, n int) (*Explicit, error) {
	if n <= 0 {
		return nil, fmt.Errorf("binning: bin count %d must be positive", n)
	}
	if len(sample) < 2 {
		return nil, fmt.Errorf("binning: need at least 2 sample values, got %d", len(sample))
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	edges := make([]float64, 0, n+1)
	edges = append(edges, sorted[0])
	for k := 1; k < n; k++ {
		q := sorted[k*len(sorted)/n]
		if q > edges[len(edges)-1] { // skip duplicate quantiles
			edges = append(edges, q)
		}
	}
	// Make the top edge exclusive-safe so the maximum maps into the last
	// bin; a constant sample degrades to one bin of this tiny width.
	top := sorted[len(sorted)-1]
	top += math.Max(1e-12, math.Abs(top)*1e-12)
	edges = append(edges, top)
	return NewExplicit(edges)
}

// BinInto maps src onto bin ids, dst[i] = T(m.Bin(src[i])) for every i, and
// is how a whole array is binned: the mapper's kind is resolved once per
// call, so the uniform and explicit-edge mappers run their own Bin inlined in
// a concrete loop (the same clamps, NaN and top-edge guards, by construction)
// instead of an interface call per element; any other Mapper is called
// through the interface. T must hold m.Bins()-1 and dst be as long as src.
func BinInto[T uint8 | uint16 | int32](m Mapper, dst []T, src []float64) {
	dst = dst[:len(src)]
	switch m := m.(type) {
	case *Uniform:
		for i, v := range src {
			dst[i] = T(m.Bin(v))
		}
	case *Explicit:
		for i, v := range src {
			dst[i] = T(m.Bin(v))
		}
	default:
		for i, v := range src {
			dst[i] = T(m.Bin(v))
		}
	}
}

// MinMax scans a slice once and returns its range; it returns (0, 1) for an
// empty slice so downstream mapper constructors remain valid.
func MinMax(data []float64) (min, max float64) {
	if len(data) == 0 {
		return 0, 1
	}
	min, max = data[0], data[0]
	for _, v := range data[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Edges materializes the Bins()+1 edge values of any mapper, used when
// serializing an index so it can be queried without the original mapper.
func Edges(m Mapper) []float64 {
	n := m.Bins()
	out := make([]float64, n+1)
	for b := 0; b < n; b++ {
		out[b] = m.Low(b)
	}
	out[n] = m.High(n - 1)
	return out
}
