package metrics

import "sort"

// CFP is the Cumulative Frequency Plot the paper uses to report accuracy
// loss (§5.5, Figures 16 and 17): for a set of error values, a point (x, y)
// means fraction y of all errors are below x. A curve further to the left
// means higher accuracy.
type CFP struct {
	sorted []float64
}

// NewCFP builds a plot over the given error samples.
func NewCFP(errors []float64) *CFP {
	s := append([]float64(nil), errors...)
	sort.Float64s(s)
	return &CFP{sorted: s}
}

// Len returns the number of samples.
func (c *CFP) Len() int { return len(c.sorted) }

// FractionBelow returns the fraction of samples strictly less than x.
func (c *CFP) FractionBelow(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the error distribution.
func (c *CFP) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(q * float64(len(c.sorted)-1))
	return c.sorted[i]
}

// Mean returns the average error.
func (c *CFP) Mean() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
}

// Points samples the curve at k evenly spaced cumulative fractions,
// returning (x, y) pairs ready for plotting or for the experiment harness
// to print as the paper's figure series.
func (c *CFP) Points(k int) [][2]float64 {
	out := make([][2]float64, 0, k)
	n := len(c.sorted)
	if n == 0 || k <= 0 {
		return out
	}
	for i := 1; i <= k; i++ {
		idx := i*n/k - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, [2]float64{c.sorted[idx], float64(i) / float64(k)})
	}
	return out
}
