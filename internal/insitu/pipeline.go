// Package insitu is the paper's end-to-end system (§2.3, Figure 2): a
// simulation produces time-steps in memory; a reduction method (bitmaps,
// full data, or sampling) summarizes each step; time-step selection runs
// online over the summaries; and only the selected summaries are written
// out — for bitmaps, a step's run streams are encoded into bitmaps when it
// is committed. Core allocation between simulation and bitmap generation
// follows the paper's two strategies — Shared Cores and Separate Cores with
// the Equation 1/2 calibrated split — and all phase costs are reported
// separately so the Figure 7-10/12/15 breakdowns can be regenerated.
package insitu

import (
	"context"
	"fmt"
	"time"

	"insitubits/internal/binning"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/iosim"
	"insitubits/internal/sampling"
	"insitubits/internal/selection"
	"insitubits/internal/sim"
	"insitubits/internal/store"
	"insitubits/internal/telemetry"
)

// Method is the data-reduction approach applied to each time-step.
type Method int

const (
	// Bitmaps is the paper's method: compress each variable into a bitmap
	// index (each bin WAH or BBC, see Config.Codec) and discard the raw data.
	Bitmaps Method = iota
	// FullData is the baseline: keep (and eventually write) raw arrays.
	FullData
	// Sampling keeps a fixed element subset of each array (§5.5 baseline).
	Sampling
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Bitmaps:
		return "bitmaps"
	case FullData:
		return "fulldata"
	case Sampling:
		return "sampling"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Config parameterizes one pipeline run.
type Config struct {
	Sim    sim.Simulator
	Steps  int // time-steps to simulate (paper: 100)
	Select int // time-steps to keep (paper: 25)

	Method    Method
	Bins      int     // bins per variable (bitmaps/fulldata metrics)
	SamplePct float64 // sampling percentage for Method == Sampling
	Seed      int64   // sampler seed

	// Codec selects the per-bin bitmap encoding for Method == Bitmaps. The
	// zero value (codec.Auto) stores each bin in the smaller of WAH and BBC;
	// codec.WAH or codec.BBC stores every bin in that one.
	Codec codec.ID

	// Metric scores each step against the previous selection; the steps
	// are partitioned into Select fixed-length intervals (online selection
	// sees them as they stream, so importance-balanced partitioning, which
	// needs all importances up front, is offline-only).
	Metric selection.Metric

	Cores    int      // total cores (worker goroutines)
	Strategy Strategy // nil defaults to SharedCores

	Store *iosim.Store // output device; nil disables output accounting

	// OutputDir, when set, persists every selected step's summaries for
	// real: one .isbm (bitmaps) or .israw (full data, sampling) file per
	// variable, plus a manifest.json index (see Manifest).
	OutputDir string

	// Telemetry selects the registry the run reports into (the live
	// RunStatus under RunStatusName, queue-depth gauge, step counter). Nil
	// means telemetry.Default; the phase breakdown is measured either way,
	// into the run's own phase record.
	Telemetry *telemetry.Registry

	// Ctx, when set, cancels the run: both strategies stop between steps
	// (and the separate-cores producer unblocks from a full queue) once the
	// context is done. Nil means context.Background().
	Ctx context.Context

	// FS is the filesystem the run's durable artifacts (step files,
	// manifest, journal) go through. Nil means the real filesystem
	// (iosim.OS); tests inject an iosim.FaultFS here to rehearse crashes
	// and transient store errors.
	FS iosim.FS

	// resume carries the replay state Resume derived from the run journal;
	// nil for a fresh run.
	resume *resumeState
}

// context returns the run's context, defaulting to Background.
func (c *Config) context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// fsys returns the run's filesystem, defaulting to the real one.
func (c *Config) fsys() iosim.FS {
	if c.FS != nil {
		return c.FS
	}
	return iosim.OS
}

func (c *Config) validate() error {
	if c.Sim == nil {
		return fmt.Errorf("insitu: nil simulator")
	}
	if c.Steps < 1 {
		return fmt.Errorf("insitu: %d steps", c.Steps)
	}
	if c.Select < 1 || c.Select > c.Steps {
		return fmt.Errorf("insitu: select %d of %d steps", c.Select, c.Steps)
	}
	if c.Method < Bitmaps || c.Method > Sampling {
		return fmt.Errorf("insitu: unknown method %v", c.Method)
	}
	if !c.Metric.Valid() {
		return fmt.Errorf("insitu: unknown metric %v", c.Metric)
	}
	if c.Bins < 1 && c.Method != Sampling {
		return fmt.Errorf("insitu: %d bins", c.Bins)
	}
	if c.Method == Bitmaps && c.Bins > index.MaxIDBins {
		// A step is staged as narrow bin ids; two bytes address MaxIDBins.
		return fmt.Errorf("insitu: %d bins, bitmaps take at most %d", c.Bins, index.MaxIDBins)
	}
	if c.Method == Sampling && (c.SamplePct <= 0 || c.SamplePct > 100) {
		return fmt.Errorf("insitu: sample percentage %g", c.SamplePct)
	}
	if c.Cores < 1 {
		return fmt.Errorf("insitu: %d cores", c.Cores)
	}
	if !c.Codec.Valid() {
		return fmt.Errorf("insitu: unknown codec %v", c.Codec)
	}
	if c.Method == Sampling && c.Bins < 1 {
		return fmt.Errorf("insitu: sampling still needs bins for selection metrics, got %d", c.Bins)
	}
	if c.Strategy != nil {
		// Before anything is written: a rejected run must leave the output
		// directory as it found it.
		return c.Strategy.validate(c.Cores)
	}
	return nil
}

// Breakdown is the per-phase cost of a run. Simulate, Reduce and Select are
// measured busy time on the host; Output is modelled from bytes written and
// the store's bandwidth (see DESIGN.md on the I/O substitution).
type Breakdown struct {
	Simulate time.Duration
	Reduce   time.Duration
	Select   time.Duration
	Output   time.Duration
}

// Total sums the phases; under SharedCores this equals end-to-end time.
func (b Breakdown) Total() time.Duration {
	return b.Simulate + b.Reduce + b.Select + b.Output
}

// Result reports a pipeline run.
type Result struct {
	Breakdown Breakdown
	// Wall is the measured wall-clock time of the produce/reduce loop; with
	// SeparateCores it is less than Simulate+Reduce because they overlap.
	Wall time.Duration
	// Selected are the kept time-step indices.
	Selected []int
	// BytesWritten is the total output volume (selected summaries only).
	BytesWritten int64
	// StepBytes is the raw size of one time-step (all variables).
	StepBytes int64
	// SummaryBytes is the average in-memory size of a written step's
	// summaries: for bitmaps, the encoded bitmaps (Figure 10's bitmap size).
	SummaryBytes int64
	// IDBytes is the average per-step size of the run streams a bitmap
	// summary holds while it waits for selection (each variable's runs of
	// equal bin ids, what the scorer merges and a committed step is encoded
	// from), over every step. They are never written; PeakMemory counts them.
	IDBytes int64
	// StagedBytes is the size of one staged step, what a slot of the
	// separate-cores queue holds: bin ids, the sample, or the raw step.
	StagedBytes int64
	// PeakMemory is the modelled in-situ working set (Figure 11), plus the
	// QueuePeak staged steps a separate-cores run had in flight.
	PeakMemory int64
	// QueuePeak is the high-watermark of the separate-cores step queue
	// (counting a produced step blocked on a full queue); 0 under
	// SharedCores. The paper's memory-capacity bound on the queue makes
	// this the run's backpressure signal.
	QueuePeak int
	// StageTime is the part of Breakdown.Reduce spent staging steps (the
	// "stage" spans): under SeparateCores, busy time of the simulation cores.
	StageTime time.Duration
	// WriteTime is the measured time spent persisting selected summaries
	// (the "write" spans); distinct from Breakdown.Output, which stays the
	// bandwidth-modelled transfer time (see DESIGN.md).
	WriteTime time.Duration
}

// Run executes the configured pipeline and reports the phase breakdown.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	red, err := newReducer(cfg)
	if err != nil {
		return nil, err
	}
	return runReducer(cfg, red)
}

// runReducer is Run once the configuration is valid and its reducer made.
func runReducer(cfg Config, red *reducer) (*Result, error) {
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = SharedCores{}
	}
	rt := newRunTelemetry(cfg, strategy.Describe())
	w, err := newWriter(cfg, rt)
	if err != nil {
		return nil, err
	}
	sel := newSelector(cfg, red)
	sel.w = w
	sel.rt = rt
	res, err := runSteps(cfg, red, sel, strategy)
	if err != nil {
		// Abort without sealing: the journal keeps its last durable record
		// and Resume can pick the run up from there.
		w.close()
		return nil, err
	}
	if w != nil {
		if err := w.finish(); err != nil {
			return nil, err
		}
	}
	res.finishMemory(cfg, red)
	return res, nil
}

// reducer turns one time-step into a selection.Summary, in two stages:
// stage reads the raw step and leaves the small owned thing the summary is a
// pure function of, summarize makes the summary of that. Stage runs where
// the raw step is — under separate cores on the simulate side of the queue.
// A bitmap summary is its run streams; encode makes a committed step's
// bitmaps from them.
type reducer struct {
	cfg     Config
	mappers []binning.Mapper
	sampler *sampling.Sampler
	// spare holds the id arrays of the step summarized last, which its
	// summary no longer needs — it keeps the run stream its scan found —
	// for the next stage to map into (index.MapIDsInto): one step's ids
	// are kept, not one per step.
	spare chan []*index.BinIDs
}

func newReducer(cfg Config) (*reducer, error) {
	r := &reducer{cfg: cfg, spare: make(chan []*index.BinIDs, 1)}
	ranges := cfg.Sim.Ranges()
	if len(ranges) != len(cfg.Sim.Vars()) {
		return nil, fmt.Errorf("insitu: simulator %s declares %d ranges for %d vars",
			cfg.Sim.Name(), len(ranges), len(cfg.Sim.Vars()))
	}
	for _, rg := range ranges {
		m, err := binning.NewUniform(rg[0], rg[1], cfg.Bins)
		if err != nil {
			return nil, fmt.Errorf("insitu: binning for range %v: %w", rg, err)
		}
		r.mappers = append(r.mappers, m)
	}
	if cfg.Method == Sampling {
		s, err := sampling.NewRandom(cfg.Sim.Elements(), cfg.SamplePct, cfg.Seed)
		if err != nil {
			return nil, err
		}
		r.sampler = s
	}
	return r, nil
}

// staged is one time-step in the form its summary is made from, owning all
// it holds: per variable the narrow bin ids (Bitmaps: an index is a pure
// function of ids and mapper), or the array a data summary wraps — the sample
// (Sampling) or the whole step (FullData).
type staged struct {
	ids    []*index.BinIDs
	arrays [][]float64
}

// stage reads one step's fields using nWorkers cores and keeps nothing of
// them, so they may be lent (sim.Lender); only the full-data method, whose
// staged step is the step, takes fields it owns as they are.
func (r *reducer) stage(fields []sim.Field, owned bool, nWorkers int) (staged, error) {
	if r.cfg.Method == Bitmaps {
		// The step's cores are spent once: multi-variable steps (Lulesh's 12
		// arrays) map — and later build and score — their variables
		// concurrently, a single-variable step parallelizes within each call.
		st := staged{ids: make([]*index.BinIDs, len(fields))}
		select {
		case spare := <-r.spare:
			copy(st.ids, spare)
		default:
		}
		perVar := perVar(len(fields), nWorkers)
		sim.ParallelFor(len(fields), nWorkers, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				st.ids[k] = index.MapIDsInto(st.ids[k], fields[k].Data, r.mappers[k], perVar)
			}
		})
		return st, nil
	}
	if r.cfg.Method == FullData && !owned {
		fields = sim.CloneFields(fields)
	}
	st := staged{arrays: make([][]float64, len(fields))}
	for k, f := range fields {
		st.arrays[k] = f.Data
		if r.sampler != nil {
			sampled, err := r.sampler.Sample(f.Data)
			if err != nil {
				return staged{}, err
			}
			st.arrays[k] = sampled
		}
	}
	return st, nil
}

// perVar is the worker count each of a step's nVars variables gets.
func perVar(nVars, nWorkers int) int { return max(1, nWorkers/max(1, nVars)) }

// stagedBytes is the size of one staged step: what a slot of the
// separate-cores queue holds.
func (r *reducer) stagedBytes() int64 {
	n, vars := int64(r.cfg.Sim.Elements()), int64(len(r.mappers))
	switch r.cfg.Method {
	case Bitmaps:
		if r.cfg.Bins > 1<<8 {
			return 2 * n * vars
		}
		return n * vars
	case Sampling:
		return int64(r.sampler.SampleBytes()) * vars
	default:
		return 8 * n * vars
	}
}

// summarize builds one staged step's summary using nWorkers cores.
func (r *reducer) summarize(st staged, nWorkers int) *stepSummary {
	nVars := len(st.ids) + len(st.arrays)
	sum := &stepSummary{parts: make([]selection.Summary, nVars), cores: nWorkers}
	if r.cfg.Method == Bitmaps {
		// Each variable's ids are scanned into their run stream, which the
		// scorer merges and a committed step is encoded from (encode).
		// Aggregation below is in variable order, so the result is
		// deterministic whatever the worker count.
		runs := make([]*index.Runs, nVars)
		perVar := perVar(nVars, nWorkers)
		sim.ParallelFor(nVars, nWorkers, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				runs[k] = index.ScanIDs(st.ids[k], r.mappers[k], perVar)
			}
		})
		select {
		case r.spare <- st.ids:
		default:
		}
		for k, rs := range runs {
			sum.parts[k] = selection.NewRunSummary(rs, perVar)
			sum.idBytes += int64(rs.SizeBytes())
		}
		return sum
	}
	for k, data := range st.arrays {
		sum.parts[k] = selection.NewDataSummary(data, r.mappers[k])
		sum.outBytes += store.RawSize(len(data))
		sum.memBytes += int64(8 * len(data))
	}
	return sum
}

// encode makes a bitmap step's indexes from its run streams, each bin under
// the run's codec, over the cores the step was summarized with, and sets
// what the step writes. The bitmaps are the ones the step's ids index to,
// bit for bit (index.FromRuns).
func (r *reducer) encode(sum *stepSummary) {
	sum.xs = make([]*index.Index, len(sum.parts))
	perVar := perVar(len(sum.parts), sum.cores)
	sim.ParallelFor(len(sum.parts), sum.cores, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			sum.xs[k] = index.FromRuns(sum.parts[k].(*selection.RunSummary).Runs, r.mappers[k], perVar, r.cfg.Codec)
		}
	})
	for _, x := range sum.xs {
		sum.outBytes += store.IndexSize(x)
		sum.memBytes += int64(x.SizeBytes())
	}
}

// stepSummary aggregates one time-step's per-variable summaries; metric
// scores sum across variables (the paper analyzes all 12 Lulesh arrays).
type stepSummary struct {
	step  int
	parts []selection.Summary
	// xs are a bitmap step's indexes, one per variable, from its encode at
	// commit until it is written.
	xs       []*index.Index
	outBytes int64 // serialized size on the output device
	memBytes int64 // in-memory size of what gets written (bitmaps, raw or sampled arrays)
	idBytes  int64 // in-memory run streams the scorer merges, never written
	// cores lets multi-variable metric evaluation fan out across the
	// pipeline's workers ("the time-steps selection time is reduced almost
	// linearly" with cores, §5.1). Scores are accumulated in variable
	// order, so the result is deterministic regardless of core count.
	cores int
	// replay marks a stub standing in for a step whose reduction a resumed
	// run skipped because its score (and possibly its artifacts) are
	// already durable in the journal. A stub has no parts and must never be
	// scored or persisted afresh — the resume planner guarantees every step
	// that could still be scored against or written is fully re-reduced.
	replay bool
}

// Dissimilarity implements selection.Summary.
func (s *stepSummary) Dissimilarity(other selection.Summary, m selection.Metric) float64 {
	o, ok := other.(*stepSummary)
	if !ok {
		panic(fmt.Sprintf("insitu: stepSummary compared against %T", other))
	}
	scores := make([]float64, len(s.parts))
	sim.ParallelFor(len(s.parts), s.cores, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			scores[k] = s.parts[k].Dissimilarity(o.parts[k], m)
		}
	})
	total := 0.0
	for _, v := range scores { // fixed order: deterministic sum
		total += v
	}
	return total
}

// SizeBytes implements selection.Summary: everything the summary holds in
// memory.
func (s *stepSummary) SizeBytes() int { return int(s.memBytes + s.idBytes) }

var _ selection.Summary = (*stepSummary)(nil)

// selector drives the streaming greedy selection (selection.Greedy): each
// interval's steps are scored against the previously selected step as they
// arrive, so only the incumbent best (plus the previous selection) stays
// referenced. A committed bitmap step is encoded (reducer.encode), then
// written.
type selector struct {
	cfg      Config
	red      *reducer
	greedy   *selection.Greedy
	prev     *stepSummary
	best     *stepSummary
	written  int64
	sumBytes int64 // in-memory size of the written steps' summaries
	nSums    int   // written steps sumBytes counts
	idBytes  int64
	nSeen    int
	w        *writer
	rt       *runTelemetry
	err      error
}

func newSelector(cfg Config, red *reducer) *selector {
	return &selector{
		cfg:    cfg,
		red:    red,
		greedy: selection.NewGreedy(cfg.Steps, cfg.Select),
	}
}

// offer consumes step t's summary in order; metric evaluation is timed as
// the select phase and committed writes as write phases, which is where the
// run report's Select phase and WriteTime come from. When ctx carries the
// step's identity-trace span (the step loop opens one per step while a
// trace recorder is installed) the same phases appear as child spans of
// that trace and the journaled score carries its trace ID. On a resumed
// run, steps whose score is already journaled skip the metric evaluation
// and replay the recorded score instead — exact, because Go's float64 JSON
// round-trips bit-for-bit — so the selection unfolds identically.
func (s *selector) offer(ctx context.Context, t int, sum *stepSummary) {
	sum.step = t
	s.idBytes += sum.idBytes
	s.nSeen++
	s.rt.stepsDone.Inc()
	s.rt.observeStep(ctx, t)
	if t == 0 { // step 0 is always selected (paper Figure 3)
		s.prev = sum
		s.write(ctx, sum)
		return
	}
	if rs := s.cfg.resume; rs != nil {
		if score, ok := rs.log.Scores[t]; ok {
			s.rt.stepsRecovered.Inc()
			s.applyScore(ctx, t, sum, score)
			return
		}
	}
	var score float64
	err := s.rt.phase(ctx, phaseSelect, t, func(ctx context.Context) error {
		telemetry.SpanFromContext(ctx).SetAttrInt("vs_step", int64(s.prev.step))
		score = sum.Dissimilarity(s.prev, s.cfg.Metric)
		return nil
	})
	if err != nil {
		s.fail(err)
		return
	}
	// The score is durable before the interval logic can commit on it, so a
	// crash between here and the commit resumes with the selection intact.
	s.fail(s.w.recordScore(t, score, telemetry.TraceIDOf(ctx)))
	s.applyScore(ctx, t, sum, score)
}

// applyScore acts on the greedy's outcome for one scored step: a kept step
// becomes the interval's incumbent, and a committed incumbent the new
// selection, written at once.
func (s *selector) applyScore(ctx context.Context, t int, sum *stepSummary, score float64) {
	out := s.greedy.Offer(t, score)
	if out&selection.Keep != 0 {
		s.best = sum
	}
	if out&selection.Commit != 0 {
		s.prev = s.best
		s.write(ctx, s.best)
		s.best = nil
	}
}

// write commits one selected step: encode it, then account and persist what
// it writes. Its bitmaps are dropped once written; the step stays the
// selection as its run streams.
func (s *selector) write(ctx context.Context, sum *stepSummary) {
	if err := s.encode(ctx, sum); err != nil {
		s.fail(err)
		return
	}
	if sum.memBytes > 0 {
		s.sumBytes += sum.memBytes
		s.nSums++
	}
	err := s.rt.phase(ctx, phaseWrite, sum.step, func(ctx context.Context) error {
		sp := telemetry.SpanFromContext(ctx)
		sp.SetAttrInt("step", int64(sum.step))
		sp.SetAttrInt("bytes", sum.outBytes)
		s.written += sum.outBytes
		s.rt.wroteStep(sum.outBytes)
		if s.cfg.Store != nil {
			s.cfg.Store.Account(sum.outBytes)
		}
		if s.w == nil || s.err != nil {
			return nil
		}
		return s.w.writeStep(ctx, sum)
	})
	sum.xs = nil
	s.fail(err)
}

// encode makes a committed bitmap step's indexes — bitmap generation, timed
// as the reduce phase's encode — and folds them into the run status. A step
// whose artifacts a resumed run found durable is not encoded: its byte count
// is the journal's, as a replay stub's is.
func (s *selector) encode(ctx context.Context, sum *stepSummary) error {
	if sum.replay || s.cfg.Method != Bitmaps {
		return nil
	}
	if rs := s.cfg.resume; rs != nil {
		if files, ok := rs.durable[sum.step]; ok {
			sum.outBytes = journalBytes(files)
			return nil
		}
	}
	return s.rt.phase(ctx, phaseReduce, sum.step, func(ctx context.Context) error {
		return s.rt.phase(ctx, phaseEncode, sum.step, func(context.Context) error {
			s.red.encode(sum)
			s.rt.observeIndexes(sum.xs)
			return nil
		})
	})
}

// fail keeps the run's first persistence (or phase) error.
func (s *selector) fail(err error) {
	if err != nil && s.err == nil {
		s.err = err
	}
}

func (r *Result) finishMemory(cfg Config, red *reducer) {
	stepBytes := int64(8*cfg.Sim.Elements()) * int64(len(cfg.Sim.Vars()))
	r.StepBytes = stepBytes
	r.StagedBytes = red.stagedBytes()
	if cfg.Method == Bitmaps {
		// Steps wait for selection as run streams; one committed step at a
		// time is encoded, and its bitmaps are dropped once written.
		r.PeakMemory = MemoryModel(cfg.Method, stepBytes, r.IDBytes, memoryWindow) + r.SummaryBytes
	} else {
		r.PeakMemory = MemoryModel(cfg.Method, stepBytes, r.SummaryBytes, memoryWindow)
	}
	r.PeakMemory += int64(r.QueuePeak) * r.StagedBytes
}

// memoryWindow is how many current time-steps the run's memory model
// assumes held in memory for selection: the paper's Figure 11 window.
const memoryWindow = 10

// MemoryModel reproduces the paper's Figure 11 accounting. Full data holds
// the previous selected step, one in-flight (simulating) step, and `window`
// current steps — all raw. The reduced methods hold the in-flight raw step,
// the previous selected summary, and `window` current summaries, each at its
// in-memory size (a bitmap summary waits as its run streams).
func MemoryModel(m Method, stepBytes, summaryBytes int64, window int) int64 {
	switch m {
	case FullData:
		return stepBytes /* prev selected */ + stepBytes /* in-flight */ +
			int64(window)*stepBytes
	default:
		return stepBytes /* in-flight raw step being reduced */ +
			summaryBytes /* prev selected */ +
			int64(window)*summaryBytes
	}
}
