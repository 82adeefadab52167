package insitu

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/telemetry"
)

// RunStatusName is the registry status key the pipeline publishes its live
// RunStatus under; the debug server serves it at /debug/run and
// `bitmapctl top` renders it.
const RunStatusName = "run"

// The per-step phases of a run. Each is timed once, into the run's phase
// record — the one source of Result.Breakdown, StageTime, WriteTime and
// RunStatus.Phases — and opened as a child span of the step's identity
// trace under the same name. SpanStage and SpanEncode nest under SpanReduce:
// the part of the reduction that reads the raw step, paid on the simulate
// side under separate cores, and the encode of a committed step's bitmaps
// from its run streams, paid in the trace of the step that commits it.
const (
	SpanSimulate = "simulate"
	SpanReduce   = "reduce"
	SpanStage    = "stage"
	SpanEncode   = "encode"
	SpanSelect   = "select"
	SpanWrite    = "write"
)

// SpanStep is the identity-trace root each pipeline step runs under when a
// trace recorder is installed.
const SpanStep = "insitu.step"

// phase indexes the run's phase record.
type phase int

const (
	phaseSimulate phase = iota
	phaseReduce
	phaseStage
	phaseEncode
	phaseSelect
	phaseWrite
	numPhases
)

var phaseNames = [numPhases]string{SpanSimulate, SpanReduce, SpanStage, SpanEncode, SpanSelect, SpanWrite}

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
	// CodecBins is the cumulative per-codec bin mix of every step the run
	// encoded — the committed ones ("wah"/"bbc"/"other"); empty for
	// non-bitmap methods.
	CodecBins map[string]int64 `json:"codec_bins,omitempty"`
	// Phases is the run's phase record so far: count and total time of
	// each phase that has run (simulate, reduce, stage, encode, select,
	// write).
	Phases    map[string]PhaseStatus `json:"phases,omitempty"`
	ElapsedNs int64                  `json:"elapsed_ns"`
	Done      bool                   `json:"done"`
	// Generation is the highest index generation among the indexes the run
	// encoded for its committed steps — /healthz reports it so probes can
	// tell whether the indexes a query layer serves are from the current run.
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

// runTelemetry carries one run's measurement state through the strategies
// and the selector.
type runTelemetry struct {
	// phases is the run's phase record: per phase, how often it ran and
	// its total time in ns.
	phases [numPhases]struct{ count, ns atomic.Int64 }
	// queueDepth mirrors the separate-cores step queue into the registry
	// for live introspection; peak is the run-local watermark.
	queueDepth *telemetry.Gauge
	stepsDone  *telemetry.Counter
	// Robustness counters: transient store errors retried, pipeline worker
	// panics converted to errors, and steps a resumed run replayed from the
	// journal instead of recomputing.
	storeRetries   *telemetry.Counter
	workerPanics   *telemetry.Counter
	stepsRecovered *telemetry.Counter
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

// newRunTelemetry binds the run's instruments in the registry
// (cfg.Telemetry, defaulting to telemetry.Default) and publishes the live
// run-status provider the debug server serves at /debug/run — so every
// field status reads without an atomic is set before that.
func newRunTelemetry(cfg Config, strategyDesc string) *runTelemetry {
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default
	}
	rt := &runTelemetry{
		workload:     cfg.Sim.Name(),
		method:       cfg.Method.String(),
		codecName:    cfg.Codec.String(),
		steps:        cfg.Steps,
		start:        time.Now(),
		strategyDesc: strategyDesc,
	}
	rt.currentStep.Store(-1)
	rt.journal.Store("none")
	rt.queueDepth = reg.Gauge("insitu.queue_depth")
	rt.stepsDone = reg.Counter("insitu.steps_processed")
	rt.storeRetries = reg.Counter("store.retries")
	rt.workerPanics = reg.Counter("insitu.worker_panics")
	rt.stepsRecovered = reg.Counter("insitu.steps_recovered")
	reg.PublishStatus(RunStatusName, rt.status)
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
		QueueDepth:   int(rt.queueDepth.Value()),
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
	for p, name := range phaseNames {
		n := rt.phases[p].count.Load()
		if n == 0 {
			continue
		}
		if st.Phases == nil {
			st.Phases = make(map[string]PhaseStatus, numPhases)
		}
		st.Phases[name] = PhaseStatus{Count: n, TotalNs: rt.phases[p].ns.Load()}
	}
	if id, ok := rt.lastTraceID.Load().(string); ok && id != "" {
		st.TraceID = id
	}
	return st
}

// phase runs fn as phase p of step t and times it once, into the phase
// record. fn runs under the phase's child span of the step's identity trace
// (carried by the context it gets; a no-op without a trace recorder) and —
// while a debug server serves /debug/pprof — under pprof labels for the
// phase, workload and codec, which the workers it spawns inherit. A panic
// in fn (a simulator, a reduction worker) becomes an error naming the step,
// and a telemetry count, not a dead process with a half-written output
// directory.
func (rt *runTelemetry) phase(ctx context.Context, p phase, t int, fn func(context.Context) error) (err error) {
	name := phaseNames[p]
	sp := telemetry.SpanFromContext(ctx).Child(name)
	ctx, unlabel := telemetry.Label(ctx, "phase", name, "workload", rt.workload, "codec", rt.codecName)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			rt.workerPanics.Inc()
			err = fmt.Errorf("insitu: %s panic at step %d: %v", name, t, r)
		}
		rt.phases[p].count.Add(1)
		rt.phases[p].ns.Add(int64(time.Since(start)))
		unlabel()
		sp.End()
	}()
	return fn(telemetry.ContextWithSpan(ctx, sp))
}

// currentStepCount is the steps-offered count (currentStep+1, floored at 0).
func (rt *runTelemetry) currentStepCount() int64 {
	if n := rt.currentStep.Load() + 1; n > 0 {
		return n
	}
	return 0
}

// observeStep folds one offered step into the live run status: current
// step and the step's identity-trace ID (if any).
func (rt *runTelemetry) observeStep(ctx context.Context, t int) {
	rt.currentStep.Store(int64(t))
	if id := telemetry.TraceIDOf(ctx); id != "" {
		rt.lastTraceID.Store(id)
	}
}

// observeIndexes folds a committed step's encoded indexes into the live run
// status: their generation and per-codec bin mix — O(bins) metadata reads,
// no bitmap is decoded.
func (rt *runTelemetry) observeIndexes(xs []*index.Index) {
	for _, x := range xs {
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

// queueAt records the separate-cores queue's depth: the steps in the
// channel, plus one while the producer holds a step it is about to send —
// so a producer blocked on a full queue reads as depth cap+1, the
// backpressure signal.
func (rt *runTelemetry) queueAt(depth int) {
	d := int64(depth)
	rt.queueDepth.Set(d)
	for {
		p := rt.peak.Load()
		if d <= p || rt.peak.CompareAndSwap(p, d) {
			return
		}
	}
}

// phaseTime is phase p's total time so far.
func (rt *runTelemetry) phaseTime(p phase) time.Duration {
	return time.Duration(rt.phases[p].ns.Load())
}

// finish copies the phase record into the result's phase breakdown — the
// run report and /debug/run read the same record. The run status stays
// published with Done set, so a dashboard shows the completed run until the
// next one starts.
func (rt *runTelemetry) finish(res *Result) {
	rt.done.Store(true)
	res.Breakdown.Simulate = rt.phaseTime(phaseSimulate)
	res.Breakdown.Reduce = rt.phaseTime(phaseReduce)
	res.StageTime = rt.phaseTime(phaseStage)
	res.Breakdown.Select = rt.phaseTime(phaseSelect)
	res.WriteTime = rt.phaseTime(phaseWrite)
	res.QueuePeak = int(rt.peak.Load())
}
