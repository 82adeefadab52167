package telemetry

import (
	"context"
	"testing"
)

// The disabled path must be no-op cheap: every instrument method on a nil
// handle is a nil-check and a return, so instrumented code paths cost a
// branch when telemetry is off. These benchmarks pin that down; the
// whole-pipeline overhead guard lives in internal/bitvec (the hottest
// instrumented package) as TestInstrumentationOverhead.

func BenchmarkNoopCounterInc(b *testing.B) {
	var r *Registry
	c := r.Counter("noop")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNoopHistogramRecord(b *testing.B) {
	var r *Registry
	h := r.Histogram("noop")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("live")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("live")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewRegistry().Histogram("live")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

func BenchmarkHistogramRecordParallel(b *testing.B) {
	h := NewRegistry().Histogram("live")
	b.RunParallel(func(pb *testing.PB) {
		v := int64(0)
		for pb.Next() {
			h.Record(v)
			v += 6151 // spread across shards
		}
	})
}

func BenchmarkGaugeAdd(b *testing.B) {
	g := NewRegistry().Gauge("live")
	for i := 0; i < b.N; i++ {
		g.Add(1)
		g.Add(-1)
	}
}

// BenchmarkTraceStartSpanDisabled is the identity-tracing disabled path:
// no recorder installed, StartSpan must reduce to one atomic pointer load.
func BenchmarkTraceStartSpanDisabled(b *testing.B) {
	SetTraceRecorder(nil)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "q")
		sp.End()
	}
}

// BenchmarkTraceChildEnd is one identity child span open/close inside an
// already-traced request (the per-operator cost when tracing is on).
func BenchmarkTraceChildEnd(b *testing.B) {
	rec := NewTraceRecorder(TraceConfig{})
	_, root := rec.StartTrace(context.Background(), "request")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root.Child("op").End()
	}
	root.End()
}
