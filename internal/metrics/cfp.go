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
