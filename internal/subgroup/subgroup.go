// Package subgroup implements bitmap-based subgroup discovery in the spirit
// of the authors' SciSD companion work [39], which the paper lists among
// the analyses bitmaps support without the original data (§2.2): find
// conjunctions of value-range conditions over explanatory variables under
// which a target variable's mean deviates most from its global mean.
//
// Everything runs on indices: a condition's extent is the OR of its bin
// vectors, a conjunction is the AND of its conditions' extents, and the
// target mean over an extent comes from masked approximate aggregation —
// counts exact, means within one bin width.
package subgroup

import (
	"context"
	"fmt"
	"math"
	"sort"

	"insitubits/internal/bitvec"
	"insitubits/internal/index"
	"insitubits/internal/query"
)

// Condition restricts one variable to the bin range [BinLo, BinHi).
type Condition struct {
	Var          int
	BinLo, BinHi int
}

// Subgroup is one discovered conjunction with its statistics.
type Subgroup struct {
	Conditions []Condition
	// Count is the exact number of covered elements.
	Count int
	// Mean is the estimated target mean over the subgroup; MeanLo/MeanHi
	// bound the true mean.
	Mean, MeanLo, MeanHi float64
	// Quality = coverage^0.5 × |Mean − global mean| (classic mean-based
	// interestingness).
	Quality float64

	extent bitvec.Bitmap
}

// The beam search's fixed shape.
const (
	// beamWidth is how many subgroups survive each refinement level.
	beamWidth = 8
	// maxConditions bounds the conjunction depth.
	maxConditions = 2
	// alpha is the coverage exponent of the quality measure.
	alpha = 0.5
)

// windowSizes are the bin-range widths used to generate candidate
// conditions.
var windowSizes = [...]int{1, 2, 4, 8}

// Discover runs beam search over conjunctions of bin-range conditions and
// returns the topK best subgroups (5 when topK < 1). vars are the
// explanatory variables' indices, target the variable whose mean deviation
// defines interestingness; all must cover the same n elements. Subgroups
// covering at most n/100 of them are pruned.
func Discover(vars []*index.Index, target *index.Index, topK int) ([]Subgroup, error) {
	if len(vars) == 0 {
		return nil, fmt.Errorf("subgroup: no explanatory variables")
	}
	n := target.N()
	for i, v := range vars {
		if v.N() != n {
			return nil, fmt.Errorf("subgroup: variable %d covers %d elements, target %d", i, v.N(), n)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("subgroup: empty dataset")
	}
	if topK < 1 {
		topK = 5
	}
	minCount := n/100 + 1

	globalMean := estimateMean(target)

	// Level 1: all single conditions.
	var beam []Subgroup
	for vi, x := range vars {
		for _, w := range windowSizes {
			if w > x.Bins() {
				continue
			}
			for lo := 0; lo+w <= x.Bins(); lo++ {
				cond := Condition{Var: vi, BinLo: lo, BinHi: lo + w}
				extent := conditionExtent(x, cond, nil)
				sg, ok := evaluate([]Condition{cond}, extent, target, globalMean, minCount)
				if ok {
					beam = append(beam, sg)
				}
			}
		}
	}
	best := append([]Subgroup(nil), beam...)
	beam = topQuality(beam, beamWidth)

	// Refinement levels: extend each beam member with a condition on a
	// variable it does not constrain yet.
	for depth := 2; depth <= maxConditions; depth++ {
		var next []Subgroup
		for _, sg := range beam {
			within := make([]uint64, bitvec.FlatWords(sg.extent.Len()))
			sg.extent.OrInto(within, 0, len(within))
			used := map[int]bool{}
			for _, c := range sg.Conditions {
				used[c.Var] = true
			}
			for vi, x := range vars {
				if used[vi] {
					continue
				}
				for _, w := range windowSizes {
					if w > x.Bins() {
						continue
					}
					for lo := 0; lo+w <= x.Bins(); lo++ {
						cond := Condition{Var: vi, BinLo: lo, BinHi: lo + w}
						extent := conditionExtent(x, cond, within)
						conds := append(append([]Condition(nil), sg.Conditions...), cond)
						child, ok := evaluate(conds, extent, target, globalMean, minCount)
						if ok {
							next = append(next, child)
						}
					}
				}
			}
		}
		if len(next) == 0 {
			break
		}
		best = append(best, next...)
		beam = topQuality(next, beamWidth)
	}

	best = topQuality(best, topK)
	for i := range best {
		best[i].extent = nil // do not leak working state
	}
	return best, nil
}

// conditionExtent ORs the condition's bin vectors into one flat buffer,
// ANDs it with within (a parent extent's flat words) unless that is nil,
// and encodes the result once.
func conditionExtent(x *index.Index, c Condition, within []uint64) bitvec.Bitmap {
	buf := make([]uint64, bitvec.FlatWords(x.N()))
	for b := c.BinLo; b < c.BinHi; b++ {
		x.Bitmap(b).OrInto(buf, 0, len(buf))
	}
	for i := range within {
		buf[i] &= within[i]
	}
	return bitvec.FromFlat(buf, x.N())
}

// evaluate scores one candidate; ok is false when it covers fewer than
// minCount elements.
// Conditions are stored in canonical (Var, BinLo) order so the same
// conjunction reached via different refinement orders deduplicates.
func evaluate(conds []Condition, extent bitvec.Bitmap, target *index.Index, globalMean float64, minCount int) (Subgroup, bool) {
	sort.Slice(conds, func(i, j int) bool {
		if conds[i].Var != conds[j].Var {
			return conds[i].Var < conds[j].Var
		}
		return conds[i].BinLo < conds[j].BinLo
	})
	agg, err := query.MeanMasked(context.Background(), target, extent)
	if err != nil || agg.Count < minCount {
		return Subgroup{}, false
	}
	coverage := float64(agg.Count) / float64(target.N())
	quality := math.Pow(coverage, alpha) * math.Abs(agg.Estimate-globalMean)
	return Subgroup{
		Conditions: conds,
		Count:      agg.Count,
		Mean:       agg.Estimate,
		MeanLo:     agg.Lo,
		MeanHi:     agg.Hi,
		Quality:    quality,
		extent:     extent,
	}, true
}

func estimateMean(x *index.Index) float64 {
	sum := 0.0
	for b := 0; b < x.Bins(); b++ {
		sum += float64(x.Count(b)) * (x.Mapper().Low(b) + x.Mapper().High(b)) / 2
	}
	return sum / float64(x.N())
}

// topQuality keeps the k best subgroups, deduplicated by condition set.
func topQuality(sgs []Subgroup, k int) []Subgroup {
	sort.Slice(sgs, func(i, j int) bool { return sgs[i].Quality > sgs[j].Quality })
	seen := map[string]bool{}
	out := make([]Subgroup, 0, k)
	for _, sg := range sgs {
		key := fmt.Sprint(sg.Conditions)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, sg)
		if len(out) == k {
			break
		}
	}
	return out
}

// Describe renders a subgroup's conditions using the variables' bin edges.
func Describe(sg Subgroup, vars []*index.Index, names []string) string {
	s := ""
	for i, c := range sg.Conditions {
		if i > 0 {
			s += " AND "
		}
		name := fmt.Sprintf("var%d", c.Var)
		if c.Var < len(names) {
			name = names[c.Var]
		}
		m := vars[c.Var].Mapper()
		s += fmt.Sprintf("%s in [%.3g, %.3g)", name, m.Low(c.BinLo), m.High(c.BinHi-1))
	}
	return s
}
