// Package insitu is the paper's end-to-end system (§2.3, Figure 2): a
// simulation produces time-steps in memory; a reduction method (bitmaps,
// full data, or sampling) summarizes each step; time-step selection runs
// online over the summaries; and only the selected summaries are written
// out. Core allocation between simulation and bitmap generation follows the
// paper's two strategies — Shared Cores and Separate Cores with the
// Equation 1/2 calibrated split — and all phase costs are reported
// separately so the Figure 7-10/12/15 breakdowns can be regenerated.
package insitu

import (
	"context"
	"fmt"
	"strings"
	"time"

	"insitubits/internal/binning"
	"insitubits/internal/bitcache"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/iosim"
	"insitubits/internal/qlog"
	"insitubits/internal/query"
	"insitubits/internal/sampling"
	"insitubits/internal/selection"
	"insitubits/internal/sim"
	"insitubits/internal/store"
	"insitubits/internal/telemetry"
)

// Method is the data-reduction approach applied to each time-step.
type Method int

const (
	// Bitmaps is the paper's method: compress each variable into a WAH
	// bitmap index and discard the raw data.
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
	// zero value (codec.Auto) applies the adaptive density policy — dense
	// bins store uncompressed, sparse bins take the smaller run-length
	// codec. Pin codec.WAH to reproduce pre-v2 output exactly.
	Codec codec.ID

	Metric selection.Metric
	Part   selection.Partitioner

	// VarWeights optionally weights each variable's contribution to the
	// multi-variable selection score (nil = equal weights, the paper's
	// implicit choice for Lulesh's 12 arrays). Length must match the
	// simulator's variable count; weights must be non-negative.
	VarWeights []float64

	Cores    int      // total cores (worker goroutines)
	Strategy Strategy // nil defaults to SharedCores

	// MemoryBudgetBytes, when positive, bounds the separate-cores step
	// queue: its capacity becomes QueueCapForMemory(budget, step bytes)
	// whenever the strategy leaves QueueCap zero — the paper's "the queue
	// size is limited by the memory capacity".
	MemoryBudgetBytes int64

	Store *iosim.Store // output device; nil disables output accounting

	// OutputDir, when set, persists every selected step's summaries for
	// real: one .isbm (bitmaps) or .israw (full data, sampling) file per
	// variable, plus a manifest.json index (see Manifest).
	OutputDir string

	// Window is how many current time-steps the memory model assumes held
	// in memory for selection (paper Figure 11 uses 10).
	Window int

	// Telemetry selects the registry the run reports into (phase span tree
	// under "pipeline", queue-depth gauge, step counter). Nil means
	// telemetry.Default; the phase breakdown is always measured either way
	// because each run traces into its own tracer.
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

	// Retry is the backoff policy applied to transient store errors while
	// persisting artifacts. The zero value gets iosim.Retry's defaults
	// (4 attempts, 1ms base, 100ms cap). Crashes are never retried.
	Retry iosim.Backoff

	// OnPublish, when set, is invoked after each selected step's artifacts
	// are durably committed — written, fsynced, and sealed by the journal's
	// select record. An embedded query server (internal/serve) hangs its
	// zero-downtime catalog reload off this; cross-process servers poll the
	// journal instead. Called on the selection goroutine between steps, so
	// the hook must not block for long.
	OnPublish func(step int)

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
	if c.VarWeights != nil {
		if len(c.VarWeights) != len(c.Sim.Vars()) {
			return fmt.Errorf("insitu: %d weights for %d variables", len(c.VarWeights), len(c.Sim.Vars()))
		}
		positive := false
		for i, w := range c.VarWeights {
			if w < 0 {
				return fmt.Errorf("insitu: negative weight %g for variable %d", w, i)
			}
			if w > 0 {
				positive = true
			}
		}
		if !positive {
			return fmt.Errorf("insitu: all variable weights are zero")
		}
	}
	if c.Part != nil {
		if _, ok := c.Part.(selection.FixedLength); !ok {
			// Online selection sees steps as they stream, so importance-
			// balanced partitioning (which needs all importances up front)
			// is an offline-only feature.
			return fmt.Errorf("insitu: online selection supports fixed-length partitioning only, got %T", c.Part)
		}
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
	// SummaryBytes is the average per-step summary size.
	SummaryBytes int64
	// IDBytes is the average per-step size of the bin ids the summaries
	// carry in memory next to their bitmaps (conditional-entropy runs: one
	// narrow id per element, handed from the build to the scorer). They are
	// never written, so SummaryBytes does not count them; PeakMemory does.
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
	// SlowQueries are the slowest per-step selection scorings of the run
	// (slowest first, at most selectorSlowK), each with a profile of the
	// step's per-variable summary shape. They also feed query.LogSlow, so
	// an installed slow-query log sees them with full detail.
	SlowQueries []*query.Profile
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
	sel := newSelector(cfg)
	sel.w = w
	sel.rt = rt
	res, err := strategy.run(cfg, red, sel)
	if err == nil && sel.err != nil {
		err = sel.err
	}
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
	res.SlowQueries = sel.slow.Profiles()
	res.finishMemory(cfg, red)
	return res, nil
}

// reducer turns one time-step into a selection.Summary plus the byte count
// its serialized form would occupy on the output device, in two stages: stage
// reads the raw step and leaves the small owned thing the summary is a pure
// function of, summarize makes the summary of that. Stage runs where the raw
// step is — under separate cores on the simulate side of the queue.
type reducer struct {
	cfg     Config
	mappers []binning.Mapper
	sampler *sampling.Sampler
}

func newReducer(cfg Config) (*reducer, error) {
	r := &reducer{cfg: cfg}
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
		perVar := perVar(len(fields), nWorkers)
		sim.ParallelFor(len(fields), nWorkers, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				st.ids[k] = index.MapIDs(fields[k].Data, r.mappers[k], perVar)
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
	sum := &stepSummary{parts: make([]selection.Summary, nVars), weights: r.cfg.VarWeights, cores: nWorkers}
	if r.cfg.Method == Bitmaps {
		// Each bin is encoded under the codec policy as it is finished.
		// Aggregation below is in variable order, so the result is
		// deterministic whatever the worker count.
		xs := make([]*index.Index, nVars)
		perVar := perVar(nVars, nWorkers)
		sim.ParallelFor(nVars, nWorkers, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				xs[k] = index.BuildFromIDs(st.ids[k], r.mappers[k], perVar, r.cfg.Codec)
			}
		})
		for k, x := range xs {
			// Conditional entropy and the spatial EMD are scored from
			// per-element bin ids: the summary keeps the ids it was built
			// from, so a candidate is scored without decoding its bitmaps
			// back. The count EMD reads histograms only; its ids end here.
			var ids *index.BinIDs
			if r.cfg.Metric != selection.EMDCount {
				ids = st.ids[k]
			}
			sum.parts[k] = selection.NewBuiltSummary(x, ids, perVar)
			sum.outBytes += store.IndexSize(x)
			sum.memBytes += int64(x.SizeBytes())
			sum.idBytes += int64(ids.SizeBytes())
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

// stepSummary aggregates one time-step's per-variable summaries; metric
// scores sum across variables (the paper analyzes all 12 Lulesh arrays).
type stepSummary struct {
	step     int
	parts    []selection.Summary
	outBytes int64     // serialized size on the output device
	memBytes int64     // in-memory size of what gets written (bitmaps, raw or sampled arrays)
	idBytes  int64     // in-memory bin ids handed to the scorer, never written
	weights  []float64 // nil = equal weights
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

func (s *stepSummary) weight(k int) float64 {
	if s.weights == nil {
		return 1
	}
	return s.weights[k]
}

// Dissimilarity implements selection.Summary.
func (s *stepSummary) Dissimilarity(other selection.Summary, m selection.Metric) float64 {
	o, ok := other.(*stepSummary)
	if !ok {
		panic(fmt.Sprintf("insitu: stepSummary compared against %T", other))
	}
	if s.cores > 1 && len(s.parts) > 1 {
		scores := make([]float64, len(s.parts))
		sim.ParallelFor(len(s.parts), s.cores, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				if w := s.weight(k); w > 0 {
					scores[k] = w * s.parts[k].Dissimilarity(o.parts[k], m)
				}
			}
		})
		total := 0.0
		for _, v := range scores { // fixed order: deterministic sum
			total += v
		}
		return total
	}
	total := 0.0
	for k := range s.parts {
		if w := s.weight(k); w > 0 {
			total += w * s.parts[k].Dissimilarity(o.parts[k], m)
		}
	}
	return total
}

// generations lists the index generations of the summary's bitmap parts,
// for retiring their cached bitmaps once the summary leaves the selection.
func (s *stepSummary) generations() []uint64 {
	var out []uint64
	for _, p := range s.parts {
		if bs, ok := p.(*selection.BitmapSummary); ok && bs.X != nil {
			out = append(out, bs.X.Generation())
		}
	}
	return out
}

// dropIDs releases the bin ids of the summary's bitmap parts
// (selection.BitmapSummary.DropIDs).
func (s *stepSummary) dropIDs() {
	for _, p := range s.parts {
		if bs, ok := p.(*selection.BitmapSummary); ok {
			bs.DropIDs()
		}
	}
}

// Importance implements selection.Summary.
func (s *stepSummary) Importance() float64 {
	total := 0.0
	for _, p := range s.parts {
		total += p.Importance()
	}
	return total
}

// SizeBytes implements selection.Summary: everything the summary holds in
// memory.
func (s *stepSummary) SizeBytes() int { return int(s.memBytes + s.idBytes) }

var _ selection.Summary = (*stepSummary)(nil)

// selector performs the streaming greedy selection: each interval's steps
// are scored against the previously selected step as they arrive, so only
// the incumbent best (plus the previous selection) stays referenced.
type selector struct {
	cfg       Config
	intervals [][2]int
	ivPos     int
	prev      *stepSummary
	best      *stepSummary
	bestScore float64
	selected  []int
	written   int64
	sumBytes  int64
	idBytes   int64
	nSeen     int
	w         *writer
	rt        *runTelemetry
	slow      *query.TopK
	err       error
}

// selectorSlowK is how many of the slowest per-step selection scorings
// every run keeps for its report (Result.SlowQueries).
const selectorSlowK = 5

func newSelector(cfg Config) *selector {
	imp := make([]float64, cfg.Steps) // fixed-length partitioning ignores it
	part := cfg.Part
	if part == nil {
		part = selection.FixedLength{}
	}
	return &selector{
		cfg:       cfg,
		intervals: part.Partition(imp, cfg.Select),
		slow:      query.NewTopK(selectorSlowK),
	}
}

// offer consumes step t's summary in order; metric evaluation is recorded
// as a "select" span and committed writes as "write" spans, which is where
// the run report's Select phase and WriteTime come from. When ctx carries
// the step's identity-trace span (the strategies open one per step while a
// trace recorder is installed) the same phases appear as child spans of
// that trace and the journaled score carries its trace ID. On a resumed
// run, steps whose score is already journaled skip the metric evaluation
// and replay the recorded score instead — exact, because Go's float64 JSON
// round-trips bit-for-bit — so the selection unfolds identically.
func (s *selector) offer(ctx context.Context, t int, sum *stepSummary) {
	sum.step = t
	s.sumBytes += sum.memBytes
	s.idBytes += sum.idBytes
	s.nSeen++
	s.rt.stepsDone.Inc()
	s.rt.observeStep(ctx, t, sum)
	if t == 0 { // step 0 is always selected (paper Figure 3)
		s.prev = sum
		s.selected = append(s.selected, 0)
		s.write(ctx, sum)
		return
	}
	if rs := s.cfg.resume; rs != nil {
		if score, ok := rs.scores[t]; ok {
			s.rt.stepsRecovered.Inc()
			s.applyScore(ctx, t, sum, score)
			return
		}
	}
	sp := s.rt.root.Child(SpanSelect)
	tsp := telemetry.SpanFromContext(ctx).Child(SpanSelect)
	start := time.Now()
	score := sum.Dissimilarity(s.prev, s.cfg.Metric)
	elapsed := time.Since(start)
	tsp.SetAttrInt("vs_step", int64(s.prev.step))
	tsp.End()
	sp.End()
	// The score is durable before the interval logic can commit on it, so a
	// crash between here and the commit resumes with the selection intact.
	if err := s.w.recordScore(t, score, telemetry.TraceIDOf(ctx)); err != nil && s.err == nil {
		s.err = err
	}
	s.recordSelect(ctx, t, sum, score, elapsed)
	s.applyScore(ctx, t, sum, score)
}

// applyScore runs the streaming interval logic for one scored step. Every
// summary that leaves the selection here — a losing interval candidate or
// the superseded previous selection once a new step is committed — retires
// its cached bitmaps: queries will never see those index generations again.
func (s *selector) applyScore(ctx context.Context, t int, sum *stepSummary, score float64) {
	if s.ivPos < len(s.intervals) {
		iv := s.intervals[s.ivPos]
		if t >= iv[0] && t < iv[1] {
			if s.best == nil || score > s.bestScore {
				s.retire(s.best)
				// No score reads the incumbent until it is the selection, so
				// it drops its ids and the first score against it decodes
				// them again: one step's ids live across an interval, not two.
				sum.dropIDs()
				s.best, s.bestScore = sum, score
			} else {
				s.retire(sum)
			}
			if t == iv[1]-1 { // interval complete: commit the winner
				superseded := s.prev
				s.selected = append(s.selected, s.best.step)
				s.prev = s.best
				s.write(ctx, s.best)
				s.retire(superseded)
				s.best = nil
				s.ivPos++
			}
			return
		}
	}
	s.retire(sum)
}

// retire invalidates the default bitmap cache's entries for a summary whose
// indices have been superseded by a newly published step (or discarded as a
// losing candidate). Without this, a long-running in-situ service would keep
// serving cached results for retired generations' keys — never wrong (keys
// embed the generation) but dead weight crowding out live entries.
func (s *selector) retire(sum *stepSummary) {
	if sum == nil {
		return
	}
	c := bitcache.Default()
	if c == nil {
		return
	}
	for _, g := range sum.generations() {
		c.InvalidateGeneration(g)
	}
}

// recordSelect profiles one dissimilarity scoring for the run report's
// top-K slowest selection queries and the process-wide slow-query log. The
// per-variable nodes carry only O(bins) metadata reads (bin count, codec,
// encoded words/bytes) — no bitmap is decoded, so the profile costs far
// less than the scoring it describes.
func (s *selector) recordSelect(ctx context.Context, t int, sum *stepSummary, score float64, elapsed time.Duration) {
	root := &query.Node{Op: "dissimilarity", Bin: -1}
	for k, part := range sum.parts {
		bs, ok := part.(*selection.BitmapSummary)
		if !ok || bs.X == nil {
			continue
		}
		x := bs.X
		var words, bytes int64
		perCodec := map[string]int{}
		for b := 0; b < x.Bins(); b++ {
			words += int64(x.Bitmap(b).Words())
			bytes += int64(x.Bitmap(b).SizeBytes())
			perCodec[x.Codec(b).String()]++
		}
		mix := make([]string, 0, len(perCodec))
		for _, id := range []string{"wah", "bbc", "dense"} {
			if n := perCodec[id]; n > 0 {
				mix = append(mix, fmt.Sprintf("%s=%d", id, n))
			}
		}
		root.Children = append(root.Children, &query.Node{
			Op:     "variable",
			Detail: fmt.Sprintf("var %d, codecs %s", k, strings.Join(mix, " ")),
			Bin:    -1,
			Cost:   query.Cost{BinsTouched: x.Bins(), WordsScanned: words, BytesDecoded: bytes},
		})
	}
	p := &query.Profile{
		Query:     "selection.dissimilarity",
		Mode:      query.ModeAnalyze,
		Detail:    fmt.Sprintf("step %d vs selected step %d, metric %s, score %g", t, s.prev.step, s.cfg.Metric, score),
		ElapsedNs: elapsed.Nanoseconds(),
		TraceID:   telemetry.TraceIDOf(ctx),
		Root:      root,
	}
	s.slow.Offer(p)
	query.LogSlow(p)
	query.CaptureProfile(p, qlog.DigestFloats(score))
}

func (s *selector) write(ctx context.Context, sum *stepSummary) {
	sp := s.rt.root.Child(SpanWrite)
	defer sp.End()
	wsp := telemetry.SpanFromContext(ctx).Child(SpanWrite)
	wsp.SetAttrInt("step", int64(sum.step))
	wsp.SetAttrInt("bytes", sum.outBytes)
	defer wsp.End()
	ctx = telemetry.ContextWithSpan(ctx, wsp)
	s.written += sum.outBytes
	s.rt.wroteStep(sum.outBytes)
	if s.cfg.Store != nil {
		s.cfg.Store.Account(sum.outBytes)
	}
	if s.w != nil && s.err == nil {
		s.err = s.w.writeStep(ctx, sum)
		if s.err == nil && s.cfg.OnPublish != nil {
			s.cfg.OnPublish(sum.step)
		}
	}
}

func (r *Result) finishMemory(cfg Config, red *reducer) {
	window := cfg.Window
	if window < 1 {
		window = 10
	}
	stepBytes := int64(8*cfg.Sim.Elements()) * int64(len(cfg.Sim.Vars()))
	r.StepBytes = stepBytes
	r.StagedBytes = red.stagedBytes()
	r.PeakMemory = MemoryModel(cfg.Method, stepBytes, r.SummaryBytes+r.IDBytes, window) +
		int64(r.QueuePeak)*r.StagedBytes
}

// MemoryModel reproduces the paper's Figure 11 accounting. Full data holds
// the previous selected step, one in-flight (simulating) step, and `window`
// current steps — all raw. The reduced methods hold the in-flight raw step,
// the previous selected summary, and `window` current summaries, each at its
// in-memory size (a conditional-entropy summary carries its bin ids too).
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
