package qlog

import (
	"fmt"
	"sort"

	"insitubits/internal/index"
)

// Summary is the workload analyzer's output: what a captured log says
// about the query mix — operator counts, cache behaviour, operand-arity
// and selectivity distributions, hot bins and hot value ranges, and the
// repeat ratio that bounds how much a materialized-bitmap cache could
// help. Produced by Analyze, rendered by `bitmapctl workload`.
type Summary struct {
	Total      int            `json:"total"`
	Replayable int            `json:"replayable"`
	Errors     int            `json:"errors"`
	ByOp       map[string]int `json:"by_op"`

	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`

	ElapsedNs int64 `json:"elapsed_ns"`
	Words     int64 `json:"words"`

	// UniqueQueries counts distinct replayable parameter sets; RepeatRatio
	// is 1 - unique/replayable — the fraction of queries a warm cache
	// keyed on exact parameters could answer without scanning.
	UniqueQueries int     `json:"unique_queries"`
	RepeatRatio   float64 `json:"repeat_ratio"`

	// Arity is the distribution of bins touched per query (operand arity
	// of the underlying OR); Selectivity is output rows over index N.
	Arity       Distribution `json:"arity"`
	Selectivity Distribution `json:"selectivity"`

	// HotBins ranks index bins by how many captured queries' value ranges
	// overlap them (needs an index; empty otherwise). HotRanges ranks
	// exact value-range predicates by frequency.
	HotBins   []BinCount   `json:"hot_bins,omitempty"`
	HotRanges []RangeCount `json:"hot_ranges,omitempty"`
}

// Distribution summarizes a numeric sample: count, min/max, median, p90.
type Distribution struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	Max   float64 `json:"max"`
}

// BinCount is one hot-bin ranking entry.
type BinCount struct {
	Bin     int     `json:"bin"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	Queries int     `json:"queries"`
}

// RangeCount is one hot value-range entry.
type RangeCount struct {
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	Queries int     `json:"queries"`
}

// Analyze summarizes a captured workload. x is optional: when non-nil its
// binning maps each record's value predicate onto concrete bins for the
// hot-bin ranking (records are matched to the index by content, not
// generation — a recoded index ranks identically).
func Analyze(recs []Record, x *index.Index) Summary {
	s := Summary{ByOp: make(map[string]int)}
	var arity, selectivity []float64
	unique := make(map[string]struct{})
	ranges := make(map[[2]float64]int)
	var binHits []int
	if x != nil {
		binHits = make([]int, x.Bins())
	}
	for i := range recs {
		r := &recs[i]
		s.Total++
		s.ByOp[r.Op]++
		s.ElapsedNs += r.ElapsedNs
		s.Words += r.Words
		if r.Err != "" {
			s.Errors++
		}
		switch r.Cache {
		case "hit":
			s.CacheHits++
		case "miss":
			s.CacheMisses++
		}
		if r.Bins > 0 {
			arity = append(arity, float64(r.Bins))
		}
		if r.N > 0 && r.Rows > 0 {
			selectivity = append(selectivity, float64(r.Rows)/float64(r.N))
		}
		if !r.Replayable() {
			continue
		}
		s.Replayable++
		unique[paramKey(r)] = struct{}{}
		if r.ValueHi > r.ValueLo {
			ranges[[2]float64{r.ValueLo, r.ValueHi}]++
			if x != nil {
				m := x.Mapper()
				for b := 0; b < x.Bins(); b++ {
					// Same overlap rule as query.Subset.binSelected.
					if m.High(b) > r.ValueLo && m.Low(b) < r.ValueHi {
						binHits[b]++
					}
				}
			}
		} else if x != nil {
			// No value predicate: the query touches every bin.
			for b := range binHits {
				binHits[b]++
			}
		}
	}
	s.UniqueQueries = len(unique)
	if s.Replayable > 0 {
		s.RepeatRatio = 1 - float64(s.UniqueQueries)/float64(s.Replayable)
	}
	s.Arity = summarize(arity)
	s.Selectivity = summarize(selectivity)
	for r, n := range ranges {
		s.HotRanges = append(s.HotRanges, RangeCount{Lo: r[0], Hi: r[1], Queries: n})
	}
	sort.Slice(s.HotRanges, func(i, j int) bool {
		a, b := s.HotRanges[i], s.HotRanges[j]
		if a.Queries != b.Queries {
			return a.Queries > b.Queries
		}
		return a.Lo < b.Lo
	})
	if len(s.HotRanges) > 10 {
		s.HotRanges = s.HotRanges[:10]
	}
	if x != nil {
		m := x.Mapper()
		for b, n := range binHits {
			if n > 0 {
				s.HotBins = append(s.HotBins, BinCount{Bin: b, Lo: m.Low(b), Hi: m.High(b), Queries: n})
			}
		}
		sort.Slice(s.HotBins, func(i, j int) bool {
			a, b := s.HotBins[i], s.HotBins[j]
			if a.Queries != b.Queries {
				return a.Queries > b.Queries
			}
			return a.Bin < b.Bin
		})
		if len(s.HotBins) > 10 {
			s.HotBins = s.HotBins[:10]
		}
	}
	return s
}

// paramKey canonicalizes a record's replayable parameters; records with
// equal keys would hit a parameter-keyed cache.
func paramKey(r *Record) string {
	return fmt.Sprintf("%s|%g|%g|%d|%d|%g|%t|%g|%g|%d|%d",
		r.Op, r.ValueLo, r.ValueHi, r.SpatialLo, r.SpatialHi, r.Q,
		r.Correlated, r.BValueLo, r.BValueHi, r.BSpatialLo, r.BSpatialHi)
}

func summarize(vals []float64) Distribution {
	if len(vals) == 0 {
		return Distribution{}
	}
	sort.Float64s(vals)
	q := func(p float64) float64 {
		i := int(p * float64(len(vals)-1))
		return vals[i]
	}
	return Distribution{
		Count: len(vals),
		Min:   vals[0],
		P50:   q(0.5),
		P90:   q(0.9),
		Max:   vals[len(vals)-1],
	}
}
