package query

import (
	"context"
	"fmt"
	"time"

	"insitubits/internal/bitvec"
	"insitubits/internal/index"
	"insitubits/internal/metrics"
	"insitubits/internal/qlog"
	"insitubits/internal/telemetry"
)

// This file is the one way a query executes. Every entry point — typed,
// *Analyze, or Run/Analyze over a Request — calls run: validate, decide the
// accounting level once, execute (lowering to the plan IR exactly once),
// then one epilogue for latency, slow-query log and workload capture.

// Op names a query operator.
type Op string

const (
	OpBits        Op = "bits"
	OpCount       Op = "count"
	OpSum         Op = "sum"
	OpMean        Op = "mean"
	OpQuantile    Op = "quantile"
	OpMinMax      Op = "minmax"
	OpCorrelation Op = "correlation"

	// The masked sums take a caller-built bitmap, so only their typed entry
	// points reach them: ParseOp rejects them and their records do not replay.
	opSumMasked Op = "sum-masked"
	opMaskedSum Op = "masked-sum"
)

// ParseOp maps an operator name (CLI flag, wire request, workload record)
// to an Op.
func ParseOp(s string) (Op, error) {
	switch op := Op(s); op {
	case OpBits, OpCount, OpSum, OpMean, OpQuantile, OpMinMax, OpCorrelation:
		return op, nil
	}
	return "", fmt.Errorf("query: unknown op %q (want bits, count, sum, mean, quantile, minmax, or correlation)", s)
}

// instruments returns the op's identity-span name and operation counter
// (Mean shares Sum's counter: it is one sum pass plus a division).
func (op Op) instruments() (string, *telemetry.Counter) {
	switch op {
	case OpBits:
		return "query.bits", tel.bits
	case OpCount:
		return "query.count", tel.count
	case OpSum:
		return "query.sum", tel.sum
	case OpMean:
		return "query.mean", tel.sum
	case OpQuantile:
		return "query.quantile", tel.quantile
	case OpMinMax:
		return "query.minmax", tel.minmax
	case OpCorrelation:
		return "query.correlation", tel.correlation
	case opSumMasked:
		return "query.sum-masked", tel.masked
	case opMaskedSum:
		return "query.masked-sum", tel.masked
	}
	return "query.unknown", nil
}

// Request is one replayable query: everything that decides the answer
// apart from the indexes it runs against. The query server, workload
// replay, the CLI and workload capture exchange it instead of each
// carrying an operator dispatch.
type Request struct {
	Op Op
	// A is the subset. B is Correlation's second operand: its value range
	// applies to the second index, and its spatial range must equal A's.
	A, B Subset
	// Q is Quantile's argument, in [0, 1].
	Q float64
}

func (r *Request) describe(mask bitvec.Bitmap) string {
	switch {
	case r.Op == OpQuantile:
		return fmt.Sprintf("q=%g %s", r.Q, r.A.describe())
	case r.Op == OpCorrelation:
		return fmt.Sprintf("a: %s | b: %s", r.A.describe(), r.B.describe())
	case r.Op == opSumMasked && mask != nil:
		return fmt.Sprintf("mask bits=%d", mask.Len())
	}
	return r.A.describe()
}

// validate checks everything about a request that can be wrong before any
// bitmap is touched; the operators below it assume a valid request.
func (r *Request) validate(xa, xb *index.Index, mask bitvec.Bitmap) error {
	if err := r.A.validate(xa.N()); err != nil {
		return err
	}
	switch r.Op {
	case OpBits, OpCount, OpSum, OpMean, OpMinMax:
	case OpQuantile:
		if !(r.Q >= 0 && r.Q <= 1) { // NaN too
			return fmt.Errorf("query: quantile %g out of [0,1]", r.Q)
		}
	case OpCorrelation:
		if xb == nil {
			return fmt.Errorf("query: correlation needs a second index")
		}
		if xa.N() != xb.N() {
			return fmt.Errorf("query: indices over %d and %d elements", xa.N(), xb.N())
		}
		if err := r.B.validate(xb.N()); err != nil {
			return err
		}
		if r.A.hasSpatial() != r.B.hasSpatial() || (r.A.hasSpatial() && (r.A.SpatialLo != r.B.SpatialLo || r.A.SpatialHi != r.B.SpatialHi)) {
			return fmt.Errorf("query: correlation needs one common spatial range, got [%d,%d) vs [%d,%d)",
				r.A.SpatialLo, r.A.SpatialHi, r.B.SpatialLo, r.B.SpatialHi)
		}
	case opSumMasked, opMaskedSum:
		if mask == nil {
			return fmt.Errorf("query: op %q needs a mask and cannot run from a Request", r.Op)
		}
		if mask.Len() != xa.N() {
			return fmt.Errorf("query: mask covers %d bits for %d elements", mask.Len(), xa.N())
		}
	default:
		return fmt.Errorf("query: unknown op %q", r.Op)
	}
	return nil
}

// Answer is the result of one Request; Op says which fields it fills.
type Answer struct {
	Op       Op
	Bits     bitvec.Bitmap // OpBits
	Count    int           // OpCount
	Agg      Aggregate     // OpSum, OpMean, OpQuantile
	Min, Max Aggregate     // OpMinMax
	Pair     metrics.Pair  // OpCorrelation
}

// Digest is the answer's canonical result digest — bit-exact over floats,
// encoding-independent over bitmaps — that capture records, replay
// compares and the query server stamps on a response.
func (a *Answer) Digest() string {
	switch a.Op {
	case OpBits:
		d, _ := a.BitsDigest()
		return d
	case OpCount:
		return qlog.DigestInt(a.Count)
	case OpMinMax:
		return DigestMinMax(a.Min, a.Max)
	case OpCorrelation:
		return DigestPair(a.Pair)
	}
	return DigestAggregate(a.Agg)
}

// BitsDigest is an OpBits answer's digest together with its cardinality,
// both from one walk of the bitmap's runs.
func (a *Answer) BitsDigest() (digest string, count int) {
	if a.Bits == nil {
		return "", 0
	}
	return qlog.DigestBitmap(a.Bits)
}

// Run executes one request; xb is Correlation's second index, ignored by
// every other op. The context carries what it does for the typed entry
// points: the trace span, the WithCache override, and the deadline or
// cancellation that stops execution between operators.
func Run(ctx context.Context, req Request, xa, xb *index.Index) (Answer, error) {
	ans, _, err := run(ctx, req, xa, xb, nil, acctNone)
	return ans, err
}

// Analyze is Run with the measured operator profile (full accounting).
func Analyze(ctx context.Context, req Request, xa, xb *index.Index) (Answer, *Profile, error) {
	return run(ctx, req, xa, xb, nil, acctFull)
}

// accounting is how much a request records about its own execution.
type accounting int8

const (
	// acctNone is the plain path: no Profile exists and every recorder hook
	// no-ops on a nil node.
	acctNone accounting = iota
	// acctLight keeps exact word/byte/bin/row totals — what the workload log
	// records — but skips the fill/literal pass that re-scans every operand.
	acctLight
	// acctFull is ANALYZE: the complete per-operand composition.
	acctFull
)

// installedAccounting is the level the process-wide sinks ask of every
// request: full while a slow-query log is installed (its records carry the
// whole profile), light while only a workload log is. Two atomic loads.
func installedAccounting() accounting {
	switch {
	case slowLogState.Load() != nil:
		return acctFull
	case qlog.Active() != nil:
		return acctLight
	}
	return acctNone
}

// run is the funnel. The request runs at the accounting level its caller
// wants (acctFull from *Analyze, else acctNone) or the installed sinks'
// level, whichever is higher, and gets a Profile only above acctNone.
func run(ctx context.Context, req Request, xa, xb *index.Index, mask bitvec.Bitmap, want accounting) (ans Answer, prof *Profile, err error) {
	name, counter := req.Op.instruments()
	ctx, sp, end := begin(ctx, name, counter, xa)
	defer end()
	e := executor{ctx: ctx, sp: sp}
	defer e.release()
	var start time.Time
	if lvl := max(want, installedAccounting()); lvl != acctNone {
		prof = &Profile{
			Query:   string(req.Op),
			Mode:    ModeAnalyze,
			Detail:  req.describe(mask),
			TraceID: sp.TraceID(),
			Root:    &Node{Op: string(req.Op), Bin: -1, light: lvl == acctLight},
		}
		e.prof = prof.Root
		start = time.Now()
	}
	ans.Op = req.Op
	if err = req.validate(xa, xb, mask); err == nil {
		err = e.execute(&req, xa, xb, mask, &ans)
	}
	if err != nil {
		ans = Answer{Op: req.Op}
	}
	if prof != nil {
		prof.ElapsedNs = time.Since(start).Nanoseconds()
		if err != nil {
			prof.Err = err.Error()
		}
		stampPlan(prof, e.plan)
		logSlow(prof)
		capture(prof, &req, xa, xb, &ans)
	}
	return ans, prof, err
}

// execute dispatches a validated request to its operator.
func (e *executor) execute(req *Request, xa, xb *index.Index, mask bitvec.Bitmap, ans *Answer) (err error) {
	switch req.Op {
	case OpBits:
		ans.Bits, err = e.bits(req, xa)
	case OpCount:
		ans.Count, err = e.count(xa, req.A)
	case OpSum:
		ans.Agg, err = e.sum(xa, req.A, e.prof)
	case OpMean:
		ans.Agg, err = e.sum(xa, req.A, e.prof.child("sum", req.A.describe()))
		e.prof.setRows(ans.Agg.Count)
		ans.Agg = ans.Agg.mean()
	case OpQuantile:
		ans.Agg, err = e.quantile(xa, req.A, req.Q)
	case OpMinMax:
		ans.Min, ans.Max, err = e.minMax(xa, req.A)
	case OpCorrelation:
		ans.Pair, err = e.correlation(req, xa, xb)
	case opSumMasked:
		ans.Agg, err = e.maskedAgg("count-mask", xa, mask, Subset{})
	case opMaskedSum:
		ans.Agg, err = e.maskedAgg("count-valid", xa, mask, req.A)
	}
	return err
}
