package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

// tailLevels are the percentiles the reports choose from, in per mille,
// highest last.
var tailLevels = []int{500, 750, 900, 950, 990, 999}

// highestPercentile picks the highest of tailLevels that still has at least
// ten samples beyond it among n samples; ok is false when even the median
// has fewer (n < 20).
func highestPercentile(n int) (p float64, ok bool) {
	for _, lvl := range tailLevels {
		rank := (lvl*n + 999) / 1000 // nearest rank, in integers
		if n-rank >= 10 {
			p, ok = float64(lvl)/10, true
		}
	}
	return p, ok
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the acceptance procedure measures
// run-to-run spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside [0,4] at the clamped ends: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of their median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// openSample is one request of an open-loop phase, as offsets from the
// phase's start: when it was due, when the generator actually sent it, and
// when its answer arrived.
type openSample struct {
	due, sent, done time.Duration
}

// openLoopStats times every request from its *due* time, so the wait a
// stall imposes on later requests is counted, and reports how late the
// generator itself ran (sent - due).
func openLoopStats(samples []openSample) (latencyMs, lateMs []float64) {
	for _, s := range samples {
		latencyMs = append(latencyMs, float64(s.done-s.due)/1e6)
		lateMs = append(lateMs, float64(s.sent-s.due)/1e6)
	}
	return latencyMs, lateMs
}

// Verdicts of compare, per (workload, metric) pair.
const (
	verdictWithin     = "within"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a candidate set of runs against a base set. The candidate
// regresses when its median is worse than the base median by more than
// bound (a share of the base median; bound 0 is absolute: any worsening
// regresses). When either side's run-to-run spread exceeds the bound the
// pair is unresolved, not unchanged — unless every candidate run reads
// better than every base run.
func judge(base, cand []float64, better string, bound float64) string {
	if len(base) == 0 || len(cand) == 0 {
		return verdictUnresolved
	}
	sign := 1.0 // worse = larger
	if better == "higher" {
		sign = -1
	}
	mb, mc := median(base), median(cand)
	worse := sign * (mc - mb)
	regressed := worse > bound*math.Abs(mb)
	if bound > 0 && (spread(base) > bound || spread(cand) > bound) {
		sb, sc := sorted(base), sorted(cand)
		allBetter := sc[len(sc)-1] < sb[0]
		if better == "higher" {
			allBetter = sc[0] > sb[len(sb)-1]
		}
		if !allBetter {
			return verdictUnresolved
		}
		return verdictWithin
	}
	if regressed {
		return verdictRegressed
	}
	return verdictWithin
}

// sample is one reported number: a value, its unit, and how many
// measurements it was reduced from.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

func (s sample) String() string {
	return fmt.Sprintf("%.6g %s (n=%d)", s.Value, s.Unit, s.N)
}
