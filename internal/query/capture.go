package query

import (
	"fmt"
	"strings"

	"insitubits/internal/index"
	"insitubits/internal/metrics"
	"insitubits/internal/qlog"
)

// This file is the query side of the workload capture plane: when a
// qlog.Writer is installed (qlog.Install), every request runs with at least
// light accounting (request.go), and the funnel's epilogue folds the
// finished profile into one qlog.Record — parameters, plan digest, cache
// verdict, measured words scanned, wall time, and the answer's canonical
// result digest that internal/replay byte-compares against. With no writer
// installed the plain path pays one atomic load.

// ---------------------------------------------------------------------------
// Plan digests. A plan digest fingerprints the executable plan — the op,
// its parameters, and (for bits-shaped requests) the optimized IR shape:
// operand order after most-selective-first sorting, pruned bins. Index
// generations are deliberately excluded, so the digest is
// stable across cache warm/cold and joins slow-log records to workload
// records of the same logical plan.

// stampPlan sets p.PlanDigest from the profile header plus the shape of the
// plan the request was lowered to (nil for count-shaped requests, and for
// requests that failed validation before planning).
func stampPlan(p *Profile, plan *planNode) {
	s := p.Query + "|" + p.Detail
	if plan != nil {
		s += "|" + planShape(plan)
	}
	p.PlanDigest = qlog.DigestString(s)
}

// planShape renders an optimized plan node as a compact generation-free
// expression, e.g. "and(or(v=[1,3),bins=2-4),range(0,500))".
func planShape(p *planNode) string {
	switch p.kind {
	case planEmpty:
		return "empty"
	case planOnes:
		return fmt.Sprintf("ones(%d)", p.n)
	case planRange:
		return fmt.Sprintf("range(%d,%d)", p.slo, p.shi)
	case planBinOr:
		return fmt.Sprintf("or(v=[%g,%g),bins=%s)", p.vlo, p.vhi, formatBins(p.bins))
	}
	parts := make([]string, len(p.children))
	for i, c := range p.children {
		parts[i] = planShape(c)
	}
	return "and(" + strings.Join(parts, ",") + ")"
}

// formatBins compresses a sorted bin list into run notation: "2-5,7".
func formatBins(bins []int) string {
	if len(bins) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i < len(bins); {
		j := i
		for j+1 < len(bins) && bins[j+1] == bins[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if j > i {
			fmt.Fprintf(&b, "%d-%d", bins[i], bins[j])
		} else {
			fmt.Fprintf(&b, "%d", bins[i])
		}
		i = j + 1
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Result digests, composed from fixed fields in a fixed order. Answer.Digest
// picks the one that applies.

// DigestAggregate fingerprints an Aggregate result bit-exactly.
func DigestAggregate(a Aggregate) string {
	return qlog.DigestFloats(float64(a.Count), a.Estimate, a.Lo, a.Hi)
}

// DigestMinMax fingerprints a MinMax result pair.
func DigestMinMax(min, max Aggregate) string {
	return qlog.DigestFloats(
		float64(min.Count), min.Estimate, min.Lo, min.Hi,
		float64(max.Count), max.Estimate, max.Lo, max.Hi)
}

// DigestPair fingerprints a correlation metrics result.
func DigestPair(pr metrics.Pair) string {
	return qlog.DigestFloats(pr.EntropyA, pr.EntropyB, pr.MI, pr.CondEntropyAB, pr.CondEntropyBA)
}

// ---------------------------------------------------------------------------
// Record emission and its inverse.

// capture appends one executed request to the active workload log: its
// finished profile, its replayable parameters, and — unless it failed — its
// answer's digest. Called by the funnel's epilogue; no-op (one atomic load)
// when no log is installed.
func capture(p *Profile, req *Request, xa, xb *index.Index, ans *Answer) {
	w := qlog.Active()
	if w == nil {
		return
	}
	total := p.Total()
	rec := &qlog.Record{
		Op:         p.Query,
		Detail:     p.Detail,
		PlanDigest: p.PlanDigest,
		Cache:      p.cacheVerdict(),
		Bins:       total.BinsTouched,
		Words:      total.WordsScanned,
		Rows:       total.Rows,
		ElapsedNs:  p.ElapsedNs,
		TraceID:    p.TraceID,
		Err:        p.Err,
		ValueLo:    req.A.ValueLo,
		ValueHi:    req.A.ValueHi,
		SpatialLo:  req.A.SpatialLo,
		SpatialHi:  req.A.SpatialHi,
		Q:          req.Q,
		N:          xa.N(),
		Gen:        xa.Generation(),
	}
	if req.Op == OpCorrelation {
		rec.Correlated = true
		rec.BValueLo, rec.BValueHi = req.B.ValueLo, req.B.ValueHi
		rec.BSpatialLo, rec.BSpatialHi = req.B.SpatialLo, req.B.SpatialHi
		if xb != nil {
			rec.GenB = xb.Generation()
		}
	}
	if p.Err == "" {
		rec.Result = ans.Digest()
	}
	w.Append(rec)
}

// RequestOf rebuilds the request a workload-log record captured — the
// inverse of capture, and what replay executes. It fails for records of
// ops that cannot run from recorded parameters alone.
func RequestOf(rec *qlog.Record) (Request, error) {
	op, err := ParseOp(rec.Op)
	return Request{
		Op: op,
		A:  Subset{ValueLo: rec.ValueLo, ValueHi: rec.ValueHi, SpatialLo: rec.SpatialLo, SpatialHi: rec.SpatialHi},
		B:  Subset{ValueLo: rec.BValueLo, ValueHi: rec.BValueHi, SpatialLo: rec.BSpatialLo, SpatialHi: rec.BSpatialHi},
		Q:  rec.Q,
	}, err
}
