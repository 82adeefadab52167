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
	// validate checks the strategy against the run's core count.
	validate(cores int) error
	// Describe names the strategy for experiment output (e.g. "c_all",
	// "c12_c16").
	Describe() string
}

// lentStep advances the simulator one time-step and returns the fields where
// they lie: a sim.Lender lends its own arrays (not owned: read-only, valid
// until its next step), any other simulator's Step hands over fresh ones.
// Every strategy stages the step (reducer.stage) before the simulator's next
// one, and a staged step keeps nothing of lent arrays.
func lentStep(s sim.Simulator, workers int) (fields []sim.Field, owned bool) {
	if l, ok := s.(sim.Lender); ok {
		return l.StepLent(workers), false
	}
	return s.Step(workers), true
}

// produce is the simulate side of step t: advance the simulator, then stage
// the step — the one reader of its raw arrays — before anything can advance
// the simulator again. The stage is reduction work (a stage phase inside a
// reduce phase), paid on whichever goroutine simulates. On a resumed run a
// step whose outcome the journal already fixes is not staged.
func (rt *runTelemetry) produce(ctx context.Context, cfg Config, red *reducer, t, workers int) (st staged, err error) {
	var fields []sim.Field
	var owned bool
	err = rt.phase(ctx, phaseSimulate, t, func(context.Context) error {
		fields, owned = lentStep(cfg.Sim, workers)
		return nil
	})
	if err != nil || red.replayed(t) {
		return st, err
	}
	err = rt.phase(ctx, phaseReduce, t, func(ctx context.Context) error {
		return rt.phase(ctx, phaseStage, t, func(context.Context) (err error) {
			st, err = red.stage(fields, owned, workers)
			return err
		})
	})
	return st, err
}

// consume is the reduce side of step t: the summary of the staged step, or —
// for a step a resumed run did not stage — a cheap replay stub that carries
// the step number through the selector, which scores it from the journal.
func (rt *runTelemetry) consume(ctx context.Context, red *reducer, t int, st staged, workers int) (sum *stepSummary, err error) {
	if red.replayed(t) {
		return red.cfg.resume.stub(t), nil
	}
	err = rt.phase(ctx, phaseReduce, t, func(context.Context) error {
		sum = red.summarize(st, workers)
		return nil
	})
	return sum, err
}

// replayed reports whether a resumed run's journal already fixes step t's
// outcome: the step is at or before the frontier and not needed.
func (r *reducer) replayed(t int) bool {
	rs := r.cfg.resume
	return rs != nil && t <= rs.log.Frontier && !rs.needed[t]
}

// SharedCores assigns all cores to simulation, then all cores to reduction,
// alternating per time-step — the paper's first strategy.
type SharedCores struct{}

// Describe implements Strategy.
func (SharedCores) Describe() string { return "c_all" }

func (SharedCores) validate(int) error { return nil }

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
		// (no-op context otherwise), with a child span per phase.
		stepCtx, st := telemetry.StartSpan(ctx, SpanStep)
		st.SetAttrInt("step", int64(t))
		var summary *stepSummary
		staged, err := rt.produce(stepCtx, cfg, red, t, cfg.Cores)
		if err == nil {
			summary, err = rt.consume(stepCtx, red, t, staged, cfg.Cores)
		}
		if err != nil {
			st.End()
			return nil, err
		}
		sel.offer(stepCtx, t, summary)
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
// when empty, exactly as described in §2.3. What it holds are staged steps:
// the simulation set maps each step where it lies, so a slot costs
// reducer.stagedBytes — for bitmaps a byte or two per element, not eight —
// and no raw step is ever copied.
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

func (s SeparateCores) validate(cores int) error {
	if s.SimCores < 1 || s.ReduceCores < 1 {
		return fmt.Errorf("insitu: separate-cores split %d/%d invalid", s.SimCores, s.ReduceCores)
	}
	if s.SimCores+s.ReduceCores > cores {
		return fmt.Errorf("insitu: split %d+%d exceeds %d cores", s.SimCores, s.ReduceCores, cores)
	}
	return nil
}

// queueCap is the capacity of the run's step queue — the paper's bound on how
// far simulation may run ahead of reduction: QueueCap when set, else 2.
func (s SeparateCores) queueCap() int {
	if s.QueueCap > 0 {
		return s.QueueCap
	}
	return 2
}

func (s SeparateCores) run(cfg Config, red *reducer, sel *selector) (*Result, error) {
	type queued struct {
		step   int
		staged staged
		err    error
		// ctx/span carry the step's identity trace from the producer to the
		// consumer; both are no-ops when no trace recorder is installed.
		ctx  context.Context
		span *telemetry.ActiveSpan
	}
	rt := sel.rt
	ctx := cfg.context()
	queue := make(chan queued, s.queueCap())
	simDone := make(chan struct{})

	// Producer: the simulation owns its core set, and stages each step there
	// before simulating the next; its phases add into the same record as the
	// consumer's. Before each send the queue depth counts the step it holds,
	// so a producer blocked on a full queue reads as depth cap+1 — the
	// backpressure signal; after each receive the depth is what the channel
	// holds. A simulator or staging panic travels through the queue as an
	// error; cancellation unblocks a full-queue send so the producer can
	// exit.
	go func() {
		defer close(simDone)
		defer close(queue)
		for t := 0; t < cfg.Steps; t++ {
			if ctx.Err() != nil {
				return
			}
			stepCtx, st := telemetry.StartSpan(ctx, SpanStep)
			st.SetAttrInt("step", int64(t))
			staged, err := rt.produce(stepCtx, cfg, red, t, s.SimCores)
			rt.queueAt(len(queue) + 1)
			select {
			case queue <- queued{step: t, staged: staged, err: err, ctx: stepCtx, span: st}:
			case <-ctx.Done():
				rt.queueAt(len(queue))
				st.End()
				return
			}
			if err != nil {
				return
			}
		}
	}()

	// Consumer: the rest of the reduction + streaming selection own the other
	// set. A single consumer preserves step order (selection is
	// order-dependent); the parallelism is inside the per-step reduction.
	drain := func() {
		for q := range queue {
			rt.queueAt(len(queue))
			q.span.End()
		}
		<-simDone
	}
	res := &Result{}
	wallStart := time.Now()
	for q := range queue {
		rt.queueAt(len(queue))
		var summary *stepSummary
		err := q.err
		if err == nil {
			summary, err = rt.consume(q.ctx, red, q.step, q.staged, s.ReduceCores)
		}
		if err != nil {
			// Drain so the producer can finish; first error wins.
			q.span.End()
			drain()
			return nil, err
		}
		sel.offer(q.ctx, q.step, summary)
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
// and the phase breakdown from the run's phase record.
func finishResult(cfg Config, sel *selector, res *Result) {
	res.Selected = sel.greedy.Selected
	res.BytesWritten = sel.written
	if sel.nSums > 0 {
		res.SummaryBytes = sel.sumBytes / int64(sel.nSums)
	}
	if sel.nSeen > 0 {
		res.IDBytes = sel.idBytes / int64(sel.nSeen)
	}
	if cfg.Store != nil {
		res.Breakdown.Output = cfg.Store.ModeledTime()
	}
	sel.rt.finish(res)
}

// calibSteps is how many steps Calibrate times: the paper's short initial
// set of steps.
const calibSteps = 2

// Calibrate implements the paper's Equations 1 and 2: run calibSteps steps
// with all cores, measure the average time of the work each side of the queue
// does under the split it returns — simulating and staging on one, building
// the summary on the other, with a bitmap step's encode weighted by the
// share of steps that are written (Select/Steps) — and split the cores
// proportionally. The returned strategy always grants each side at least
// one core, so it needs at least two. The calibration steps advance the
// simulator, mirroring the paper's "initial set of cores" warm-up.
func Calibrate(cfg Config) (SeparateCores, error) {
	if err := cfg.validate(); err != nil {
		return SeparateCores{}, err
	}
	if cfg.Cores < 2 {
		return SeparateCores{}, fmt.Errorf("insitu: separate cores need at least 2 cores to split, have %d", cfg.Cores)
	}
	red, err := newReducer(cfg)
	if err != nil {
		return SeparateCores{}, err
	}
	var simTime, redTime time.Duration
	for t := 0; t < calibSteps; t++ {
		t0 := time.Now()
		fields, owned := lentStep(cfg.Sim, cfg.Cores)
		st, err := red.stage(fields, owned, cfg.Cores)
		if err != nil {
			return SeparateCores{}, err
		}
		t1 := time.Now()
		sum := red.summarize(st, cfg.Cores)
		t2 := time.Now()
		if cfg.Method == Bitmaps {
			red.encode(sum)
		}
		simTime += t1.Sub(t0)
		redTime += t2.Sub(t1) + time.Since(t2)*time.Duration(cfg.Select)/time.Duration(cfg.Steps)
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
