// Package sampling implements the in-situ down-sampling baseline of the
// paper's §5.5: instead of summarizing a time-step as bitmaps, keep a fixed
// subset of its elements. Sampling is cheap and shrinks both memory and
// I/O, but — unlike bitmaps — it changes every metric computed downstream,
// which Figures 16 and 17 quantify as information loss.
package sampling

import (
	"fmt"
	"math/rand"
	"sort"
)

// Sampler selects a fixed subset of element positions of arrays of length
// N. The positions are chosen once, so the same spatial subset is taken
// from every variable and every time-step — required for joint metrics on
// samples to be meaningful.
type Sampler struct {
	n   int
	pos []int // ascending element positions
}

// NewRandom samples a uniform pseudo-random pct percent of positions,
// deterministic for a given seed.
func NewRandom(n int, pct float64, seed int64) (*Sampler, error) {
	if err := validate(n, pct); err != nil {
		return nil, err
	}
	k := int(float64(n)*pct/100 + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	r := rand.New(rand.NewSource(seed))
	pos := append([]int(nil), r.Perm(n)[:k]...)
	sort.Ints(pos) // ascending keeps Sample cache-friendly
	return &Sampler{n: n, pos: pos}, nil
}

func validate(n int, pct float64) error {
	if n <= 0 {
		return fmt.Errorf("sampling: array length %d must be positive", n)
	}
	if pct <= 0 || pct > 100 {
		return fmt.Errorf("sampling: percentage %g out of (0,100]", pct)
	}
	return nil
}

// Len returns the sample size.
func (s *Sampler) Len() int { return len(s.pos) }

// SourceLen returns the length of arrays this sampler accepts.
func (s *Sampler) SourceLen() int { return s.n }

// Fraction returns the realized sampling fraction.
func (s *Sampler) Fraction() float64 { return float64(len(s.pos)) / float64(s.n) }

// Positions exposes the sampled element positions (read-only).
func (s *Sampler) Positions() []int { return s.pos }

// Sample extracts the subset from one array.
func (s *Sampler) Sample(data []float64) ([]float64, error) {
	if len(data) != s.n {
		return nil, fmt.Errorf("sampling: array length %d, sampler built for %d", len(data), s.n)
	}
	out := make([]float64, len(s.pos))
	for i, p := range s.pos {
		out[i] = data[p]
	}
	return out, nil
}

// SampleBytes returns the storage footprint of one sampled array.
func (s *Sampler) SampleBytes() int { return 8 * len(s.pos) }
