package insitu

import (
	"context"
	"fmt"
	"time"

	"insitubits/internal/sim"
	"insitubits/internal/telemetry"
)

// Strategy is a core-allocation policy for running the pipeline (§2.3).
type Strategy interface {
	run(cfg Config, red *reducer, sel *selector) (*Result, error)
	// Describe names the strategy for experiment output (e.g. "c_all",
	// "c12_c16").
	Describe() string
}

// runStep advances the simulator one step with panic capture: a panicking
// simulator worker becomes an error (and a telemetry count), not a dead
// process with a half-written output directory. With lend set, a simulator
// that can lend its arrays (sim.Lender) is not asked for a copy.
func runStep(cfg Config, rt *runTelemetry, t, workers int, lend bool) (fields []sim.Field, err error) {
	defer func() {
		if r := recover(); r != nil {
			rt.workerPanics.Inc()
			err = fmt.Errorf("insitu: simulator panic at step %d: %v", t, r)
		}
	}()
	return step(cfg.Sim, workers, lend), nil
}

// step advances s one time-step, lent when that is both wanted and possible.
func step(s sim.Simulator, workers int, lend bool) []sim.Field {
	if l, ok := s.(sim.Lender); ok && lend {
		return l.StepLent(workers)
	}
	return s.Step(workers)
}

// lendsSteps reports whether a run that alternates simulate and reduce on
// one goroutine may read each step in the simulator's own arrays: its
// reduction is over before the next step starts, so what matters is that the
// summary keeps nothing of the raw array. A bitmap index and a sample are
// copies by construction; a full-data summary is the array itself.
func lendsSteps(cfg Config) bool { return cfg.Method != FullData }

// runReduce summarizes one step with the same panic capture. On a resumed
// run, steps whose outcome the journal already fixes are not re-reduced —
// a cheap replay stub carries the step number through the selector, which
// scores it from the journal.
func runReduce(cfg Config, red *reducer, rt *runTelemetry, fields []sim.Field, workers, t int) (sum *stepSummary, err error) {
	if rs := cfg.resume; rs != nil && !rs.needsReduce(t) {
		return rs.stub(t), nil
	}
	defer func() {
		if r := recover(); r != nil {
			rt.workerPanics.Inc()
			err = fmt.Errorf("insitu: reduction panic at step %d: %v", t, r)
		}
	}()
	return red.reduce(fields, workers)
}

// SharedCores assigns all cores to simulation, then all cores to reduction,
// alternating per time-step — the paper's first strategy.
type SharedCores struct{}

// Describe implements Strategy.
func (SharedCores) Describe() string { return "c_all" }

func (SharedCores) run(cfg Config, red *reducer, sel *selector) (*Result, error) {
	res := &Result{}
	rt := sel.rt
	ctx := cfg.context()
	wallStart := time.Now()
	for t := 0; t < cfg.Steps; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("insitu: run cancelled at step %d: %w", t, err)
		}
		// Identity trace: one trace per step when a recorder is installed
		// (no-op context otherwise), with simulate/reduce/select/write
		// child spans mirroring the aggregate phase tree.
		stepCtx, st := telemetry.StartSpan(ctx, SpanStep)
		st.SetAttrInt("step", int64(t))
		sp := rt.root.Child(SpanSimulate)
		ssp := st.Child(SpanSimulate)
		unlabel := rt.enterPhase(stepCtx, SpanSimulate)
		fields, err := runStep(cfg, rt, t, cfg.Cores, lendsSteps(cfg))
		unlabel()
		ssp.End()
		sp.End()
		if err != nil {
			st.End()
			return nil, err
		}
		sp = rt.root.Child(SpanReduce)
		rsp := st.Child(SpanReduce)
		unlabel = rt.enterPhase(stepCtx, SpanReduce)
		summary, err := runReduce(cfg, red, rt, fields, cfg.Cores, t)
		unlabel()
		rsp.End()
		sp.End()
		if err != nil {
			st.End()
			return nil, err
		}
		unlabel = rt.enterPhase(stepCtx, SpanSelect)
		sel.offer(stepCtx, t, summary)
		unlabel()
		st.End()
		if sel.err != nil {
			// Persistence failed; later steps could compute but never land.
			return nil, sel.err
		}
	}
	res.Wall = time.Since(wallStart)
	finishResult(cfg, sel, res)
	return res, nil
}

// SeparateCores splits the cores into a simulation set and a reduction set
// connected by a bounded time-step queue — the paper's second strategy. The
// queue blocks the producer when full (memory capacity) and the consumer
// when empty, exactly as described in §2.3.
type SeparateCores struct {
	SimCores    int
	ReduceCores int
	// QueueCap bounds the in-memory step queue; 0 means 2.
	QueueCap int
}

// Describe implements Strategy.
func (s SeparateCores) Describe() string {
	return fmt.Sprintf("c%d_c%d", s.SimCores, s.ReduceCores)
}

func (s SeparateCores) run(cfg Config, red *reducer, sel *selector) (*Result, error) {
	if s.SimCores < 1 || s.ReduceCores < 1 {
		return nil, fmt.Errorf("insitu: separate-cores split %d/%d invalid", s.SimCores, s.ReduceCores)
	}
	if s.SimCores+s.ReduceCores > cfg.Cores {
		return nil, fmt.Errorf("insitu: split %d+%d exceeds %d cores", s.SimCores, s.ReduceCores, cfg.Cores)
	}
	qcap := s.QueueCap
	if qcap <= 0 && cfg.MemoryBudgetBytes > 0 {
		stepBytes := int64(8*cfg.Sim.Elements()) * int64(len(cfg.Sim.Vars()))
		qcap = QueueCapForMemory(cfg.MemoryBudgetBytes, stepBytes)
	}
	if qcap <= 0 {
		qcap = 2
	}
	type queued struct {
		step   int
		fields []sim.Field
		err    error
		// ctx/span carry the step's identity trace from the producer to the
		// consumer; both are no-ops when no trace recorder is installed.
		ctx  context.Context
		span *telemetry.ActiveSpan
	}
	rt := sel.rt
	ctx := cfg.context()
	queue := make(chan queued, qcap)
	simDone := make(chan struct{})

	// Producer: the simulation owns its core set. Simulate spans end on
	// this goroutine; the tracer aggregates them with the consumer's spans.
	// The queue gauge counts a step as queued from the moment it is
	// produced, so a producer blocked on a full queue reads as
	// depth == cap+1 — the backpressure signal. A simulator panic travels
	// through the queue as an error; cancellation unblocks a full-queue
	// send so the producer can exit.
	go func() {
		defer close(simDone)
		defer close(queue)
		for t := 0; t < cfg.Steps; t++ {
			if ctx.Err() != nil {
				return
			}
			stepCtx, st := telemetry.StartSpan(ctx, SpanStep)
			st.SetAttrInt("step", int64(t))
			sp := rt.root.Child(SpanSimulate)
			ssp := st.Child(SpanSimulate)
			unlabel := rt.enterPhase(stepCtx, SpanSimulate)
			// The queue holds steps while the simulator runs on: owned copies.
			fields, err := runStep(cfg, rt, t, s.SimCores, false)
			unlabel()
			ssp.End()
			sp.End()
			rt.enqueued()
			select {
			case queue <- queued{step: t, fields: fields, err: err, ctx: stepCtx, span: st}:
			case <-ctx.Done():
				rt.dequeued()
				st.End()
				return
			}
			if err != nil {
				return
			}
		}
	}()

	// Consumer: reduction + streaming selection own the other set. A single
	// consumer preserves step order (selection is order-dependent); the
	// parallelism is inside the per-step reduction.
	drain := func() {
		for q := range queue {
			rt.dequeued()
			q.span.End()
		}
		<-simDone
	}
	res := &Result{}
	wallStart := time.Now()
	for q := range queue {
		rt.dequeued()
		if q.err != nil {
			q.span.End()
			drain()
			return nil, q.err
		}
		sp := rt.root.Child(SpanReduce)
		rsp := q.span.Child(SpanReduce)
		unlabel := rt.enterPhase(q.ctx, SpanReduce)
		summary, err := runReduce(cfg, red, rt, q.fields, s.ReduceCores, q.step)
		unlabel()
		rsp.End()
		sp.End()
		if err != nil {
			// Drain so the producer can finish; first error wins.
			q.span.End()
			drain()
			return nil, err
		}
		unlabel = rt.enterPhase(q.ctx, SpanSelect)
		sel.offer(q.ctx, q.step, summary)
		unlabel()
		q.span.End()
		if sel.err != nil {
			drain()
			return nil, sel.err
		}
	}
	<-simDone
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("insitu: run cancelled: %w", err)
	}
	res.Wall = time.Since(wallStart)
	finishResult(cfg, sel, res)
	return res, nil
}

// finishResult assembles the run report: selection outcome, I/O volume,
// and the phase breakdown regenerated from the run's telemetry spans.
func finishResult(cfg Config, sel *selector, res *Result) {
	res.Selected = sel.selected
	res.BytesWritten = sel.written
	if sel.nSeen > 0 {
		res.SummaryBytes = sel.sumBytes / int64(sel.nSeen)
		res.IDBytes = sel.idBytes / int64(sel.nSeen)
	}
	if cfg.Store != nil {
		res.Breakdown.Output = cfg.Store.ModeledTime()
	}
	sel.rt.finish(res)
}

// QueueCapForMemory derives the separate-cores queue capacity from a
// memory budget, implementing the paper's "the queue size is limited by the
// memory capacity": the queue holds raw time-steps of stepBytes each, and
// at least one slot is always granted so the pipeline can make progress.
func QueueCapForMemory(budgetBytes, stepBytes int64) int {
	if stepBytes <= 0 {
		return 1
	}
	cap := int(budgetBytes / stepBytes)
	if cap < 1 {
		cap = 1
	}
	return cap
}

// Calibrate implements the paper's Equations 1 and 2: run a few steps with
// all cores, measure average simulation and reduction time, and split the
// cores proportionally. The returned strategy always grants each side at
// least one core. The calibration steps advance the simulator, mirroring
// the paper's "initial set of cores" warm-up.
func Calibrate(cfg Config, calibSteps int) (SeparateCores, error) {
	if calibSteps < 1 {
		calibSteps = 2
	}
	red, err := newReducer(cfg)
	if err != nil {
		return SeparateCores{}, err
	}
	var simTime, redTime time.Duration
	for t := 0; t < calibSteps; t++ {
		t0 := time.Now()
		fields := step(cfg.Sim, cfg.Cores, lendsSteps(cfg))
		t1 := time.Now()
		if _, err := red.reduce(fields, cfg.Cores); err != nil {
			return SeparateCores{}, err
		}
		simTime += t1.Sub(t0)
		redTime += time.Since(t1)
	}
	total := simTime + redTime
	simCores := int(float64(cfg.Cores) * float64(simTime) / float64(total)) // Equation 1
	if simCores < 1 {
		simCores = 1
	}
	if simCores >= cfg.Cores {
		simCores = cfg.Cores - 1
	}
	return SeparateCores{SimCores: simCores, ReduceCores: cfg.Cores - simCores}, nil // Equation 2
}
