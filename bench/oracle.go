package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"insitubits/internal/binning"
	"insitubits/internal/index"
	"insitubits/internal/metrics"
	"insitubits/internal/mining"
	"insitubits/internal/qlog"
	"insitubits/internal/query"
	"insitubits/internal/serve"
)

// tally counts operations attempted and failed; a failed operation is one
// that errored, was refused, or disagreed with its oracle.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // the first few, for the report
}

// check records one attempted operation; a non-nil err fails it.
func (t *tally) check(err error) {
	t.Attempted++
	if err != nil {
		t.Failed++
		t.note(err.Error())
	}
}

func (t *tally) note(failure string) {
	if len(t.Failures) < 5 {
		t.Failures = append(t.Failures, failure)
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, f := range o.Failures {
		t.note(f)
	}
}

func (t *tally) failRatio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// binned is one raw array with its per-element bin ids: the brute-force
// model every bitmap answer is checked against.
type binned struct {
	raw   []float64
	bins  []int32
	m     binning.Mapper
	order []int32 // element positions by ascending raw value
}

func newBinned(raw []float64, m binning.Mapper) *binned {
	b := &binned{raw: raw, m: m, bins: make([]int32, len(raw)), order: make([]int32, len(raw))}
	for i, v := range raw {
		b.bins[i] = int32(m.Bin(v))
		b.order[i] = int32(i)
	}
	sort.Slice(b.order, func(i, j int) bool { return raw[b.order[i]] < raw[b.order[j]] })
	return b
}

// scope resolves a subset the way the query layer defines it: bins are
// selected whole when they overlap [ValueLo, ValueHi), positions by
// [SpatialLo, SpatialHi); a zero range is unbounded.
func (b *binned) scope(s query.Subset) (binLo, binHi int32, posLo, posHi int) {
	binLo, binHi = 0, int32(b.m.Bins())
	if s.ValueHi > s.ValueLo {
		binLo, binHi = int32(b.m.Bins()), 0
		for k := 0; k < b.m.Bins(); k++ {
			if b.m.High(k) > s.ValueLo && b.m.Low(k) < s.ValueHi {
				if int32(k) < binLo {
					binLo = int32(k)
				}
				binHi = int32(k) + 1
			}
		}
	}
	posLo, posHi = 0, len(b.raw)
	if s.SpatialHi > s.SpatialLo {
		posLo, posHi = s.SpatialLo, s.SpatialHi
	}
	return
}

// expected is the brute-force answer to one batch query: the exact
// cardinality, and the true (full-data) aggregate the bitmap answer's
// [Lo, Hi] bounds must contain.
type expected struct {
	Count    int
	Sum      float64
	Quantile float64
	Min, Max float64
	MI       float64
}

// bruteForce scans the binned raw arrays for one query's expected answer.
func bruteForce(q batchQuery, a, b *binned) expected {
	if q.Op == "correlation" {
		return bruteCorrelation(q, a, b)
	}
	var e expected
	binLo, binHi, posLo, posHi := a.scope(q.A)
	in := func(i int) bool { return a.bins[i] >= binLo && a.bins[i] < binHi }
	e.Min, e.Max = math.Inf(1), math.Inf(-1)
	for i := posLo; i < posHi; i++ {
		if in(i) {
			v := a.raw[i]
			e.Count++
			e.Sum += v
			e.Min, e.Max = math.Min(e.Min, v), math.Max(e.Max, v)
		}
	}
	if q.Op == "quantile" && e.Count > 0 {
		// Same 1-based rank as the query layer: the element the quantile
		// falls on, found by walking positions in value order.
		rank := int(q.Q*float64(e.Count-1)) + 1
		for _, p := range a.order {
			if i := int(p); i >= posLo && i < posHi && in(i) {
				if rank--; rank == 0 {
					e.Quantile = a.raw[i]
					break
				}
			}
		}
	}
	return e
}

// bruteCorrelation computes the mutual information of the two variables
// over the elements satisfying both predicates, from bin ids alone.
func bruteCorrelation(q batchQuery, a, b *binned) expected {
	aLo, aHi, posLo, posHi := a.scope(q.A)
	bLo, bHi, _, _ := b.scope(q.B)
	na, nb := a.m.Bins(), b.m.Bins()
	joint := make([]int, na*nb)
	ca, cb := make([]int, na), make([]int, nb)
	n := 0
	for i := posLo; i < posHi; i++ {
		ba, bb := a.bins[i], b.bins[i]
		if ba >= aLo && ba < aHi && bb >= bLo && bb < bHi {
			joint[int(ba)*nb+int(bb)]++
			ca[ba]++
			cb[bb]++
			n++
		}
	}
	mi := 0.0
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			if c := joint[i*nb+j]; c > 0 {
				p := float64(c) / float64(n)
				mi += p * math.Log2(p*float64(n)*float64(n)/(float64(ca[i])*float64(cb[j])))
			}
		}
	}
	return expected{Count: n, MI: math.Max(mi, 0)}
}

// answer is what the query layer returned for one batch query.
type answer struct {
	Count    int // count, or the cardinality of a bits result
	Agg      query.Aggregate
	Min, Max query.Aggregate
	Pair     metrics.Pair
}

// wrongAnswer disagrees with every expectation; the tests feed it in to see
// a wrong answer counted as a failed operation.
func wrongAnswer() answer {
	nan := query.Aggregate{Count: -1, Estimate: math.NaN(), Lo: math.NaN(), Hi: math.NaN()}
	return answer{Count: -1, Agg: nan, Min: nan, Max: nan, Pair: metrics.Pair{MI: -1}}
}

// within reports lo <= v <= hi with a relative slack for float summation.
func within(v, lo, hi float64) bool {
	eps := 1e-9 * math.Max(1, math.Max(math.Abs(lo), math.Abs(hi)))
	return v >= lo-eps && v <= hi+eps
}

// checkAnswer holds one answer against its brute-force expectation.
func checkAnswer(q batchQuery, got answer, want expected) error {
	switch q.Op {
	case "bits", "count":
		if got.Count != want.Count {
			return fmt.Errorf("%s %+v: cardinality %d, brute force %d", q.Op, q.A, got.Count, want.Count)
		}
	case "sum":
		if got.Agg.Count != want.Count || !within(want.Sum, got.Agg.Lo, got.Agg.Hi) {
			return fmt.Errorf("sum %+v: true %g (n=%d) outside [%g,%g] (n=%d)", q.A, want.Sum, want.Count, got.Agg.Lo, got.Agg.Hi, got.Agg.Count)
		}
	case "quantile":
		if got.Agg.Count != want.Count || (want.Count > 0 && !within(want.Quantile, got.Agg.Lo, got.Agg.Hi)) {
			return fmt.Errorf("quantile %g %+v: true %g outside [%g,%g]", q.Q, q.A, want.Quantile, got.Agg.Lo, got.Agg.Hi)
		}
	case "minmax":
		if got.Min.Count != want.Count || got.Max.Count != want.Count ||
			(want.Count > 0 && (!within(want.Min, got.Min.Lo, got.Min.Hi) || !within(want.Max, got.Max.Lo, got.Max.Hi))) {
			return fmt.Errorf("minmax %+v: true [%g,%g] outside min [%g,%g] / max [%g,%g]", q.A, want.Min, want.Max, got.Min.Lo, got.Min.Hi, got.Max.Lo, got.Max.Hi)
		}
	case "correlation":
		if math.Abs(got.Pair.MI-want.MI) > 1e-9*math.Max(1, want.MI) {
			return fmt.Errorf("correlation %+v x %+v: MI %g, brute force %g", q.A, q.B, got.Pair.MI, want.MI)
		}
	default:
		return fmt.Errorf("unknown op %q", q.Op)
	}
	return nil
}

// sameSelection is the paper's zero-accuracy-loss claim: the bitmap run must
// keep exactly the steps the full-data run keeps.
func sameSelection(got, want []int) error {
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("selected %v, full-data reference %v", got, want)
	}
	return nil
}

// sameFindings compares mined findings with the full-data reference: the
// same (bin pair, unit) set with equal scores.
func sameFindings(got, want []mining.Finding) error {
	if len(got) != len(want) {
		return fmt.Errorf("mining: %d findings, full-data reference %d", len(got), len(want))
	}
	type key struct{ a, b, unit int }
	ref := make(map[key]mining.Finding, len(want))
	for _, f := range want {
		ref[key{f.BinA, f.BinB, f.Unit}] = f
	}
	for _, f := range got {
		w, ok := ref[key{f.BinA, f.BinB, f.Unit}]
		if !ok || f.Begin != w.Begin || f.End != w.End ||
			math.Abs(f.ValueMI-w.ValueMI) > 1e-9 || math.Abs(f.SpatialMI-w.SpatialMI) > 1e-9 {
			return fmt.Errorf("mining: finding %+v not in the full-data reference (closest %+v)", f, w)
		}
	}
	return nil
}

// inProcess answers a served request through the query layer directly and
// returns the canonical digest the server would stamp on the same answer.
func inProcess(ctx context.Context, req *serve.QueryRequest, vars map[string]*index.Index) (string, error) {
	x := vars[req.Var]
	if x == nil {
		return "", fmt.Errorf("unknown variable %q", req.Var)
	}
	sub := query.Subset{ValueLo: req.ValueLo, ValueHi: req.ValueHi, SpatialLo: req.SpatialLo, SpatialHi: req.SpatialHi}
	switch req.Op {
	case "count":
		n, err := query.Count(ctx, x, sub)
		return qlog.DigestInt(n), err
	case "sum":
		a, err := query.Sum(ctx, x, sub)
		return query.DigestAggregate(a), err
	case "mean":
		a, err := query.Mean(ctx, x, sub)
		return query.DigestAggregate(a), err
	case "quantile":
		a, err := query.Quantile(ctx, x, sub, req.Q)
		return query.DigestAggregate(a), err
	case "minmax":
		mn, mx, err := query.MinMax(ctx, x, sub)
		return query.DigestMinMax(mn, mx), err
	}
	return "", fmt.Errorf("op %q is not part of the light mix", req.Op)
}

// checkServed compares one served answer with the in-process one.
func checkServed(ctx context.Context, req *serve.QueryRequest, digest string, vars map[string]*index.Index) error {
	want, err := inProcess(ctx, req, vars)
	if err != nil {
		return err
	}
	if digest != want {
		return fmt.Errorf("served %s %s [%g,%g): digest %s, in-process %s", req.Op, req.Var, req.ValueLo, req.ValueHi, digest, want)
	}
	return nil
}
