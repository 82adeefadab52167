package query

import (
	"context"
	"strconv"
	"time"

	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/telemetry"
)

// tel holds the package's telemetry: one latency histogram shared by every
// bitmap-only analysis plus a per-operation counter. Derived helpers
// (Mean, MeanMasked) time themselves and also hit the primitive they call,
// so counters are operation counts, not unique user requests. Nil-safe.
//
// codecOps (indexed by codec.ID) counts bitmap operands consumed by query
// operators per codec — every bin bitmap or mask an operator reads bumps
// the counter of its encoding, on the plain and profiled paths alike.
var tel struct {
	latency     *telemetry.Histogram // ns per query operation
	bits        *telemetry.Counter
	count       *telemetry.Counter
	sum         *telemetry.Counter
	quantile    *telemetry.Counter
	minmax      *telemetry.Counter
	correlation *telemetry.Counter
	masked      *telemetry.Counter

	codecOps    [3]*telemetry.Counter // by codec.ID; 0 = unknown wrappers
	slowQueries *telemetry.Counter    // profiles emitted to the slow-query log
}

// SetTelemetry (re)binds the package's instruments to a registry; nil
// disables them.
func SetTelemetry(r *telemetry.Registry) {
	tel.latency = r.Histogram("query.latency_ns")
	tel.bits = r.Counter("query.bits")
	tel.count = r.Counter("query.count")
	tel.sum = r.Counter("query.sum")
	tel.quantile = r.Counter("query.quantile")
	tel.minmax = r.Counter("query.minmax")
	tel.correlation = r.Counter("query.correlation")
	tel.masked = r.Counter("query.masked")
	tel.codecOps[codec.Auto] = r.Counter("query.codec_ops.other")
	tel.codecOps[codec.WAH] = r.Counter("query.codec_ops.wah")
	tel.codecOps[codec.BBC] = r.Counter("query.codec_ops.bbc")
	tel.slowQueries = r.Counter("query.slow")
}

func init() { SetTelemetry(telemetry.Default) }

var noopObserve = func() {}

// codecTally batches per-bin operand counts inside a hot loop so the loop
// pays one atomic add per codec instead of one per bin. These counters are
// always on — they fire on the plain path too — at the cost of one
// predictable-branch type switch plus an atomic add per operand, the same
// order as the index.Count cache-hit counter.
type codecTally [3]int64

func (ct *codecTally) bin(x *index.Index, b int) { ct[x.Codec(b)]++ }

func (ct *codecTally) flush() {
	for id, n := range ct {
		if n == 0 {
			continue
		}
		if c := tel.codecOps[id]; c != nil {
			c.Add(n)
		}
	}
}

// begin is the shared prologue of every query entry point. It counts the
// operation, opens the identity span, and — while a debug server serves
// /debug/pprof — tags the goroutine with pprof labels (op, index
// generation, trace ID) so CPU samples taken during the query attribute to
// it. The returned end closure restores the labels, ends the span, and
// records the operation latency; when the query was traced, the latency
// sample carries the trace ID as a histogram exemplar, which the /telemetry
// snapshot lists beside the histogram. With no debug server the
// label gate costs exactly one atomic load (telemetry.LabelsOn), on top of
// the tracing gate's own load — the gated overhead guard covers the whole
// prologue.
func begin(ctx context.Context, name string, op *telemetry.Counter, x *index.Index) (context.Context, *telemetry.ActiveSpan, func()) {
	op.Inc()
	ctx, sp := telemetry.StartSpan(ctx, name)
	unlabel := noopObserve
	if telemetry.LabelsOn() {
		gen := ""
		if x != nil {
			gen = strconv.FormatUint(x.Generation(), 10)
		}
		ctx, unlabel = telemetry.Label(ctx,
			"op", name, "generation", gen, "trace_id", sp.TraceID())
	}
	if tel.latency == nil {
		return ctx, sp, func() {
			unlabel()
			sp.End()
		}
	}
	start := time.Now()
	return ctx, sp, func() {
		unlabel()
		sp.End()
		tel.latency.RecordExemplar(time.Since(start).Nanoseconds(), sp.TraceID())
	}
}
