package insitu

import (
	"context"
	"fmt"
	"time"

	"insitubits/internal/sim"
	"insitubits/internal/telemetry"
)

// Strategy is a split of the run's cores between simulation and bitmap
// generation (§2.3). Both strategies run the same step loop (runSteps); a
// strategy only says how many cores each side gets and whether a queue lies
// between them.
type Strategy interface {
	// cores splits the run's total cores: the simulate side's, the reduce
	// side's, and how many staged steps the queue between them holds — 0
	// for no queue, when the two sides take turns on the same cores.
	cores(total int) (simulate, reduce, queue int)
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

func (SharedCores) cores(total int) (int, int, int) { return total, total, 0 }

func (SharedCores) validate(int) error { return nil }

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
}

// stepQueueCap is how many staged steps the separate-cores queue holds: the
// paper's bound on how far simulation may run ahead of reduction.
const stepQueueCap = 2

// Describe implements Strategy.
func (s SeparateCores) Describe() string {
	return fmt.Sprintf("c%d_c%d", s.SimCores, s.ReduceCores)
}

func (s SeparateCores) cores(int) (int, int, int) { return s.SimCores, s.ReduceCores, stepQueueCap }

func (s SeparateCores) validate(cores int) error {
	if s.SimCores < 1 || s.ReduceCores < 1 {
		return fmt.Errorf("insitu: separate-cores split %d/%d invalid", s.SimCores, s.ReduceCores)
	}
	if s.SimCores+s.ReduceCores > cores {
		return fmt.Errorf("insitu: split %d+%d exceeds %d cores", s.SimCores, s.ReduceCores, cores)
	}
	return nil
}

// handoff is one step passed from the simulate side to the reduce side: its
// staged form, or the error that stopped it, and the step's identity trace
// (ctx/span, no-ops without a trace recorder), which the reduce side ends.
type handoff struct {
	step   int
	staged staged
	err    error
	ctx    context.Context
	span   *telemetry.ActiveSpan
}

// runSteps is the pipeline's step loop under a strategy's core split. The
// simulate side opens each step's identity trace, produces the step on its
// cores and hands it on; the reduce side consumes it on its own, offers the
// summary to the selector and ends the trace. Without a queue a step is
// handed on inline, so the sides take turns on the same cores. With one,
// the simulate side runs on its own goroutine and a single consumer takes
// the steps in order (selection is order-dependent; the parallelism is
// inside each side's step). Either way the phases of both sides add into
// the one phase record.
func runSteps(cfg Config, red *reducer, sel *selector, s Strategy) (*Result, error) {
	simCores, redCores, queueCap := s.cores(cfg.Cores)
	rt := sel.rt
	ctx := cfg.context()
	// simulate hands on every step until the context is done or hand
	// refuses one; a step that failed is the last.
	simulate := func(hand func(handoff) bool) {
		for t := 0; t < cfg.Steps && ctx.Err() == nil; t++ {
			stepCtx, span := telemetry.StartSpan(ctx, SpanStep)
			span.SetAttrInt("step", int64(t))
			st, err := rt.produce(stepCtx, cfg, red, t, simCores)
			if !hand(handoff{step: t, staged: st, err: err, ctx: stepCtx, span: span}) || err != nil {
				return
			}
		}
	}
	taken := 0
	reduce := func(h handoff) error {
		var sum *stepSummary
		err := h.err
		if err == nil {
			sum, err = rt.consume(h.ctx, red, h.step, h.staged, redCores)
		}
		if err == nil {
			sel.offer(h.ctx, h.step, sum)
			// A persistence failure: later steps could compute but never land.
			err = sel.err
		}
		h.span.End()
		if err == nil {
			taken++
		}
		return err
	}

	var err error
	start := time.Now()
	if queueCap == 0 {
		simulate(func(h handoff) bool {
			err = reduce(h)
			return err == nil
		})
	} else {
		queue := make(chan handoff, queueCap)
		// Before each send the queue depth counts the step the producer
		// holds, so a producer blocked on a full queue reads as depth cap+1
		// — the backpressure signal; after each receive the depth is what
		// the channel holds. Cancellation unblocks a full-queue send. The
		// queue closes when the simulate side is done, which ends the range.
		go func() {
			defer close(queue)
			simulate(func(h handoff) bool {
				rt.queueAt(len(queue) + 1)
				select {
				case queue <- h:
					return true
				case <-ctx.Done():
					rt.queueAt(len(queue))
					h.span.End()
					return false
				}
			})
		}()
		for h := range queue {
			rt.queueAt(len(queue))
			if err == nil {
				err = reduce(h)
			} else {
				h.span.End() // drain so the producer can finish; the first error wins
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if taken < cfg.Steps {
		return nil, fmt.Errorf("insitu: run cancelled at step %d: %w", taken, ctx.Err())
	}
	res := &Result{Wall: time.Since(start)}
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

// Calibrate implements the paper's Equations 1 and 2: it runs calibSteps
// steps with all cores through the run's own produce and consume, plus a
// bitmap step's encode, into a phase record of its own — nothing is
// published, selected or written — and splits the cores (SplitCores) by
// the time of the work each side of the queue does under the split:
// simulating and staging on one; summarizing, and encoding weighted by the
// share of steps that are written (Select/Steps), on the other. It needs
// at least two cores. The calibration steps advance the simulator,
// mirroring the paper's "initial set of cores" warm-up.
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
	rt, ctx := &runTelemetry{}, cfg.context()
	for t := 0; t < calibSteps; t++ {
		var sum *stepSummary
		st, err := rt.produce(ctx, cfg, red, t, cfg.Cores)
		if err == nil {
			sum, err = rt.consume(ctx, red, t, st, cfg.Cores)
		}
		if err == nil && cfg.Method == Bitmaps {
			err = rt.phase(ctx, phaseEncode, t, func(context.Context) error {
				red.encode(sum)
				return nil
			})
		}
		if err != nil {
			return SeparateCores{}, err
		}
	}
	stage := rt.phaseTime(phaseStage)
	encode := rt.phaseTime(phaseEncode) * time.Duration(cfg.Select) / time.Duration(cfg.Steps)
	return SplitCores(cfg.Cores, rt.phaseTime(phaseSimulate)+stage, rt.phaseTime(phaseReduce)-stage+encode), nil
}

// SplitCores is the paper's Equations 1 and 2: of cores (at least two) the
// simulate side gets the share simTime/(simTime+reduceTime), but at least
// one core and at most cores−1, and the reduce side the rest.
func SplitCores(cores int, simTime, reduceTime time.Duration) SeparateCores {
	simCores := 0
	if total := simTime + reduceTime; total > 0 {
		simCores = int(float64(cores) * float64(simTime) / float64(total)) // Equation 1
	}
	simCores = min(max(simCores, 1), cores-1)
	return SeparateCores{SimCores: simCores, ReduceCores: cores - simCores} // Equation 2
}
