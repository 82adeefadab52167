package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(asc, p); got != want {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // 10 samples beyond the median need at least 20
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2}, [3]float64{1, 3, 5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5", got)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ms := time.Millisecond
	// The second request was due at 1ms but the generator stalled until 4ms;
	// its answer at 5ms is 4ms late for its user, not 1ms.
	lat, late := openLoopStats([]openSample{
		{due: 0, sent: 0, done: 1 * ms},
		{due: 1 * ms, sent: 4 * ms, done: 5 * ms},
	})
	if lat[0] != 1 || lat[1] != 4 {
		t.Errorf("latencies from due time = %v, want [1 4]", lat)
	}
	if late[0] != 0 || late[1] != 3 {
		t.Errorf("generator lateness = %v, want [0 3]", late)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name       string
		base, cand []float64
		better     string
		bound      float64
		want       string
	}{
		{"unchanged", steady, steady, "lower", 0.10, verdictWithin},
		{"5% slower inside 10%", steady, []float64{105, 106, 104, 105, 105}, "lower", 0.10, verdictWithin},
		{"20% slower", steady, []float64{120, 121, 119, 120, 120}, "lower", 0.10, verdictRegressed},
		{"20% faster", steady, []float64{80, 81, 79, 80, 80}, "lower", 0.10, verdictWithin},
		{"throughput fell 20%", steady, []float64{80, 81, 79, 80, 80}, "higher", 0.10, verdictRegressed},
		{"throughput rose", steady, []float64{120, 121, 119, 120, 120}, "higher", 0.10, verdictWithin},
		{"spread wider than bound", []float64{100, 140, 60, 120, 80}, []float64{100, 141, 61, 119, 80}, "lower", 0.10, verdictUnresolved},
		{"noisy but every run better", []float64{100, 140, 160, 120, 180}, []float64{50, 60, 70, 55, 65}, "lower", 0.10, verdictWithin},
		{"absolute bound, equal", []float64{0, 0}, []float64{0, 0}, "lower", 0, verdictWithin},
		{"absolute bound, any failure", []float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}, "lower", 0, verdictRegressed},
		{"one side missing", steady, nil, "lower", 0.10, verdictUnresolved},
	} {
		if got := judge(c.base, c.cand, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "step", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "build", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "build", Start: 30, End: 70}, // overlaps its sibling: counted once
		{ID: 4, Parent: 1, Name: "write", Start: 80, End: 90},
		{ID: 5, Parent: 2, Name: "alloc", Start: 10, End: 20},
	}
	got := selfTimes(spans)
	if s := got["step"]; s.Total != 100 || s.SelfNs != 100-60-10 {
		t.Errorf("step total %d self %d, want 100 and 30", s.Total, s.SelfNs)
	}
	if s := got["build"]; s.Count != 2 || s.Total != 80 || s.SelfNs != 70 {
		t.Errorf("build %+v, want count 2 total 80 self 70", *s)
	}
	if s := got["write"]; s.SelfNs != 10 {
		t.Errorf("write self %d, want 10", s.SelfNs)
	}
}
