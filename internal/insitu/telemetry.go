package insitu

import (
	"context"
	"sync/atomic"
	"time"

	"insitubits/internal/codec"
	"insitubits/internal/selection"
	"insitubits/internal/telemetry"
)

// TracerName is the registry key the pipeline attaches its per-run tracer
// under; the debug server shows the live span tree of the current run.
const TracerName = "pipeline"

// RunStatusName is the registry status key the pipeline publishes its live
// RunStatus under; the debug server serves it at /debug/run and
// `bitmapctl top` renders it.
const RunStatusName = "run"

// Span names of the per-step phases under the "run" root. The Figure 7-10
// phase breakdowns are regenerated from these spans (Result.Breakdown is
// filled from the tracer, not from ad-hoc timers).
const (
	SpanRun      = "run"
	SpanSimulate = "simulate"
	SpanReduce   = "reduce"
	SpanSelect   = "select"
	SpanWrite    = "write"
	// SpanStage nests under SpanReduce: the part of the reduction that reads
	// the raw step, paid on the simulate side under separate cores.
	SpanStage = "stage"
)

// SpanStep is the identity-trace root each pipeline step runs under when a
// trace recorder is installed (distinct from the aggregate SpanRun tree,
// which always exists).
const SpanStep = "insitu.step"

// RunStatus is the live snapshot of the current (or most recent) pipeline
// run, published under the registry status key RunStatusName and served as
// JSON at /debug/run. All fields are safe to read while the run is in
// flight; they describe a consistent-enough moment for dashboards, not a
// linearizable one.
type RunStatus struct {
	Workload  string `json:"workload"`
	Method    string `json:"method"`
	Strategy  string `json:"strategy,omitempty"`
	Steps     int    `json:"steps"`
	StepsDone int    `json:"steps_done"`
	// CurrentStep is the last step offered to the selector (-1 before any).
	CurrentStep int `json:"current_step"`
	// Selected counts the steps committed (written) so far.
	Selected     int   `json:"selected"`
	QueueDepth   int   `json:"queue_depth"`
	QueuePeak    int   `json:"queue_peak"`
	BytesWritten int64 `json:"bytes_written"`
	// CodecBins is the cumulative per-codec bin mix of every bitmap summary
	// the run reduced ("wah"/"bbc"/"dense"); empty for non-bitmap methods.
	CodecBins map[string]int64 `json:"codec_bins,omitempty"`
	// Phases aggregates the run's phase spans (simulate/reduce/select/write).
	Phases    map[string]PhaseStatus `json:"phases,omitempty"`
	ElapsedNs int64                  `json:"elapsed_ns"`
	Done      bool                   `json:"done"`
	// Generation is the highest index generation observed among the run's
	// bitmap summaries — /healthz reports it so probes can tell whether the
	// indexes a query layer serves are from the current run.
	Generation uint64 `json:"generation,omitempty"`
	// Journal is the run journal's lifecycle state: "none" (no output
	// directory), "active" (begin record on disk, run in flight), or
	// "sealed" (end record fsync'd — the run is durable).
	Journal string `json:"journal,omitempty"`
	// TraceID is the identity-trace ID of the most recent step, when a trace
	// recorder is installed — paste it into /debug/traces?id= to drill in.
	TraceID string `json:"trace_id,omitempty"`
}

// PhaseStatus is one phase's aggregate in a RunStatus.
type PhaseStatus struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
}

// runTelemetry carries one run's tracing state through the strategies and
// the selector. Everything is nil-safe, so a run with a nil registry works
// (it just measures into a private tracer).
type runTelemetry struct {
	tr   *telemetry.Tracer
	root *telemetry.Span
	// queueDepth mirrors the separate-cores step queue into the registry
	// for live introspection; depth/peak are the run-local truth.
	queueDepth *telemetry.Gauge
	stepsDone  *telemetry.Counter
	// Robustness counters: transient store errors retried, pipeline worker
	// panics converted to errors, and steps a resumed run replayed from the
	// journal instead of recomputing.
	storeRetries   *telemetry.Counter
	workerPanics   *telemetry.Counter
	stepsRecovered *telemetry.Counter
	depth          atomic.Int64
	peak           atomic.Int64

	// Live run-status state behind the RunStatusName provider.
	workload     string
	method       string
	codecName    string
	strategyDesc string
	steps        int
	start        time.Time
	currentStep  atomic.Int64
	selectedN    atomic.Int64
	bytesOut     atomic.Int64
	// codecBins counts bins by encoding, indexed by codec.ID (Auto stands
	// for any other Bitmap implementation).
	codecBins   [3]atomic.Int64
	generation  atomic.Uint64
	journal     atomic.Value // string: "none", "active", "sealed"
	done        atomic.Bool
	lastTraceID atomic.Value // string
}

// newRunTelemetry attaches a fresh tracer to the registry (cfg.Telemetry,
// defaulting to telemetry.Default), opens the run root span, and publishes
// the live run-status provider the debug server serves at /debug/run —
// so every field status reads without an atomic is set before that.
func newRunTelemetry(cfg Config, strategyDesc string) *runTelemetry {
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default
	}
	rt := &runTelemetry{
		tr:           telemetry.NewTracer(),
		workload:     cfg.Sim.Name(),
		method:       cfg.Method.String(),
		codecName:    cfg.Codec.String(),
		steps:        cfg.Steps,
		start:        time.Now(),
		strategyDesc: strategyDesc,
	}
	rt.currentStep.Store(-1)
	rt.journal.Store("none")
	reg.AttachTracer(TracerName, rt.tr)
	reg.PublishStatus(RunStatusName, rt.status)
	rt.root = rt.tr.Start(SpanRun)
	rt.queueDepth = reg.Gauge("insitu.queue_depth")
	rt.stepsDone = reg.Counter("insitu.steps_processed")
	rt.storeRetries = reg.Counter("store.retries")
	rt.workerPanics = reg.Counter("insitu.worker_panics")
	rt.stepsRecovered = reg.Counter("insitu.steps_recovered")
	return rt
}

// status assembles the live RunStatus snapshot (the registry provider).
func (rt *runTelemetry) status() any {
	st := RunStatus{
		Workload:     rt.workload,
		Method:       rt.method,
		Strategy:     rt.strategyDesc,
		Steps:        rt.steps,
		StepsDone:    int(rt.currentStepCount()),
		CurrentStep:  int(rt.currentStep.Load()),
		Selected:     int(rt.selectedN.Load()),
		QueueDepth:   int(rt.depth.Load()),
		QueuePeak:    int(rt.peak.Load()),
		BytesWritten: rt.bytesOut.Load(),
		ElapsedNs:    time.Since(rt.start).Nanoseconds(),
		Done:         rt.done.Load(),
		Generation:   rt.generation.Load(),
	}
	if s, ok := rt.journal.Load().(string); ok {
		st.Journal = s
	}
	names := [3]string{codec.Auto: "other", codec.WAH: "wah", codec.BBC: "bbc"}
	for i, name := range names {
		if n := rt.codecBins[i].Load(); n > 0 {
			if st.CodecBins == nil {
				st.CodecBins = make(map[string]int64, len(names))
			}
			st.CodecBins[name] = n
		}
	}
	for _, phase := range []string{SpanSimulate, SpanReduce, SpanSelect, SpanWrite} {
		p := rt.tr.Phase(SpanRun, phase)
		if p.Count == 0 {
			continue
		}
		if st.Phases == nil {
			st.Phases = make(map[string]PhaseStatus, 4)
		}
		st.Phases[phase] = PhaseStatus{Count: p.Count, TotalNs: p.Total.Nanoseconds()}
	}
	if id, ok := rt.lastTraceID.Load().(string); ok && id != "" {
		st.TraceID = id
	}
	return st
}

// enterPhase — while a debug server serves /debug/pprof — tags the
// goroutine (and any workers it spawns) with pprof labels for the in-situ
// phase, workload, and codec, so CPU samples attribute to "reduce under
// WAH" rather than a bare stack. The returned closure restores the
// caller's labels. One atomic load when no debug server serves.
func (rt *runTelemetry) enterPhase(ctx context.Context, phase string) func() {
	_, unlabel := telemetry.Label(ctx,
		"phase", phase, "workload", rt.workload, "codec", rt.codecName)
	return unlabel
}

// currentStepCount is the steps-offered count (currentStep+1, floored at 0).
func (rt *runTelemetry) currentStepCount() int64 {
	if n := rt.currentStep.Load() + 1; n > 0 {
		return n
	}
	return 0
}

// observeStep folds one offered step into the live run status: current
// step, the step's identity-trace ID (if any), and the per-codec bin mix of
// its bitmap summaries — O(bins) metadata reads, no bitmap is decoded.
func (rt *runTelemetry) observeStep(ctx context.Context, t int, sum *stepSummary) {
	rt.currentStep.Store(int64(t))
	if id := telemetry.TraceIDOf(ctx); id != "" {
		rt.lastTraceID.Store(id)
	}
	for _, part := range sum.parts {
		bs, ok := part.(*selection.BitmapSummary)
		if !ok || bs.X == nil {
			continue
		}
		x := bs.X
		rt.observeGeneration(x.Generation())
		for b := 0; b < x.Bins(); b++ {
			rt.codecBins[x.Codec(b)].Add(1)
		}
	}
}

// observeGeneration folds an index generation into the run status maximum.
func (rt *runTelemetry) observeGeneration(gen uint64) {
	for {
		cur := rt.generation.Load()
		if gen <= cur || rt.generation.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// setJournal records the run journal's lifecycle transition for /healthz.
// Nil-safe so the writer works without telemetry.
func (rt *runTelemetry) setJournal(state string) {
	if rt == nil {
		return
	}
	rt.journal.Store(state)
}

// wroteStep folds one committed step into the live run status.
func (rt *runTelemetry) wroteStep(bytes int64) {
	rt.selectedN.Add(1)
	rt.bytesOut.Add(bytes)
}

// enqueued records one step entering the separate-cores queue (called
// before the blocking send, so a blocked producer shows as backpressure).
func (rt *runTelemetry) enqueued() {
	d := rt.depth.Add(1)
	for {
		p := rt.peak.Load()
		if d <= p || rt.peak.CompareAndSwap(p, d) {
			break
		}
	}
	rt.queueDepth.Set(d)
}

// dequeued records one step leaving the queue.
func (rt *runTelemetry) dequeued() {
	rt.queueDepth.Set(rt.depth.Add(-1))
}

// finish closes the root span and copies the span totals into the result's
// phase breakdown — the run report is produced from telemetry, the tracer
// is the single source of phase truth. The run status stays published with
// Done set, so a dashboard shows the completed run until the next one
// starts.
func (rt *runTelemetry) finish(res *Result) {
	rt.root.End()
	rt.done.Store(true)
	res.Breakdown.Simulate = rt.tr.Phase(SpanRun, SpanSimulate).Total
	res.Breakdown.Reduce = rt.tr.Phase(SpanRun, SpanReduce).Total
	res.StageTime = rt.tr.Phase(SpanRun, SpanReduce, SpanStage).Total
	res.Breakdown.Select = rt.tr.Phase(SpanRun, SpanSelect).Total
	res.WriteTime = rt.tr.Phase(SpanRun, SpanWrite).Total
	res.QueuePeak = int(rt.peak.Load())
}
