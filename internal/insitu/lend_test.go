package insitu

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/selection"
	"insitubits/internal/sim"
	"insitubits/internal/sim/heat3d"
	"insitubits/internal/sim/lulesh"
)

// poisoningLender is a sim.Lender whose lent arrays go bad the way a real
// simulator's do — the next step overwrites them — only unmistakably: every
// array it lent is NaN-filled at the start of its next step (and by poison,
// which a test calls after the run). A pipeline that reads a lent step late,
// or keeps a slice of one, then bins NaNs and writes different bytes. It
// counts which of the two step calls the pipeline made.
type poisoningLender struct {
	sim.Simulator // the owning simulator the steps come from
	lent          [][]float64
	owned, lends  int
}

func (p *poisoningLender) Step(nWorkers int) []sim.Field {
	p.poison()
	p.owned++
	return p.Simulator.Step(nWorkers)
}

func (p *poisoningLender) StepLent(nWorkers int) []sim.Field {
	p.poison()
	p.lends++
	fields := p.Simulator.Step(nWorkers)
	for _, f := range fields {
		p.lent = append(p.lent, f.Data)
	}
	return fields
}

func (p *poisoningLender) poison() {
	for _, data := range p.lent {
		for i := range data {
			data[i] = math.NaN()
		}
	}
	p.lent = nil
}

var _ sim.Lender = (*poisoningLender)(nil)

// runPoisoned runs cfg over a poisoning wrapper of its simulator, poisons
// the last step once the run is over, and returns the directory's contents
// with the wrapper, for its call counts.
func runPoisoned(t *testing.T, cfg Config) (map[string][]byte, *poisoningLender) {
	t.Helper()
	p := &poisoningLender{Simulator: cfg.Sim}
	cfg.Sim, cfg.OutputDir = p, t.TempDir()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	p.poison()
	return snapshot(t, cfg.OutputDir), p
}

// A lent step is never retained: under either strategy, bitmap and sampling
// runs read each step where the simulator keeps it — staging it before the
// simulator steps on — and must write exactly the bytes — manifest, journal
// with its scores, every artifact — of the same run over a simulator that
// hands out copies.
func TestLentStepNeverRetained(t *testing.T) {
	strategies := []Strategy{SharedCores{}, SeparateCores{SimCores: 1, ReduceCores: 1}}
	for _, method := range []Method{Bitmaps, Sampling} {
		for _, mk := range []func() sim.Simulator{
			func() sim.Simulator { h, _ := heat3d.New(14, 14, 14); return h },
			func() sim.Simulator { l, _ := lulesh.New(7, 7, 7); return l },
		} {
			for _, strategy := range strategies {
				config := func() Config {
					return Config{Sim: mk(), Steps: 12, Select: 4, Method: method, Bins: 48, SamplePct: 25, Seed: 3,
						Metric: selection.ConditionalEntropy, Cores: 2, Strategy: strategy, OutputDir: t.TempDir()}
				}
				owning := config()
				owning.Sim = ownerOnly{owning.Sim}
				if _, err := Run(owning); err != nil {
					t.Fatal(err)
				}
				want := snapshot(t, owning.OutputDir)
				label := fmt.Sprintf("%v over %s, %+v", method, owning.Sim.Name(), strategy)

				got, p := runPoisoned(t, config())
				if p.owned != 0 || p.lends != 12 {
					t.Fatalf("%s: %d owned and %d lent steps, want all 12 lent", label, p.owned, p.lends)
				}
				sameSnapshot(t, label+": poisoned lender vs owning simulator", want, got)

				// The shipped simulators' own StepLent, for good measure.
				lending := config()
				if _, err := Run(lending); err != nil {
					t.Fatal(err)
				}
				sameSnapshot(t, label+": lender vs owning simulator", want, snapshot(t, lending.OutputDir))
			}
		}
	}
}

// ownerOnly hides a simulator's StepLent, leaving the plain sim.Simulator.
type ownerOnly struct{ sim.Simulator }

// Every strategy lends under every method: a staged step keeps nothing of
// the simulator's arrays — ids and samples are new arrays, a full-data step
// is cloned while it is still valid — so no run asks a Lender for the copy
// Step makes, calibration included, and each writes the directory the same
// run writes over a simulator that can only hand out copies.
func TestLentStepOnlyWhereSafe(t *testing.T) {
	base := func() Config {
		h, err := heat3d.New(12, 12, 12)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Sim: h, Steps: 8, Select: 3, Bins: 32, SamplePct: 50, Metric: selection.EMDCount, Cores: 3}
	}
	for _, strategy := range []Strategy{SharedCores{}, SeparateCores{SimCores: 1, ReduceCores: 2}} {
		for _, method := range []Method{Bitmaps, Sampling, FullData} {
			cfg := base()
			cfg.Method, cfg.Strategy = method, strategy
			got, p := runPoisoned(t, cfg)
			label := fmt.Sprintf("%s/%v", strategy.Describe(), method)
			if p.lends != 8 || p.owned != 0 {
				t.Errorf("%s: %d lent and %d owned steps, want 8 and 0", label, p.lends, p.owned)
			}
			owning := base()
			owning.Method, owning.Strategy, owning.OutputDir = method, strategy, t.TempDir()
			owning.Sim = ownerOnly{owning.Sim}
			if _, err := Run(owning); err != nil {
				t.Fatal(err)
			}
			sameSnapshot(t, label+": poisoned lender vs owning simulator", snapshot(t, owning.OutputDir), got)
		}
	}
	for _, method := range []Method{Bitmaps, FullData} {
		cfg := base()
		p := &poisoningLender{Simulator: cfg.Sim}
		cfg.Sim, cfg.Method = p, method
		if _, err := Calibrate(cfg); err != nil {
			t.Fatal(err)
		}
		if p.lends != calibSteps || p.owned != 0 {
			t.Errorf("calibrate/%v: %d lent and %d owned steps, want %d and 0", method, p.lends, p.owned, calibSteps)
		}
	}
}

// Allocation guard: a shared-cores conditional-entropy step over heat3d may
// allocate its index, its run stream and small change — less than one raw
// step (8n bytes); its n one-byte ids are mapped into the previous step's
// (0.34 of a raw step; 0.38–0.42 when every step allocated its ids). A copy
// of the step (8n) or an id array decoded per score (4n at the old width)
// would put it back above.
func TestLentStepAllocatesLessThanOneRawStep(t *testing.T) {
	const dim, steps = 64, 12
	h, err := heat3d.New(dim, dim, dim)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Sim: h, Steps: steps, Select: 4, Method: Bitmaps, Bins: 160, Metric: selection.ConditionalEntropy, Cores: 2}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / steps
	if rawStep := uint64(8 * dim * dim * dim); perStep >= rawStep {
		t.Fatalf("the run allocated %d bytes per step, a raw step is %d: the step is being copied or its ids re-derived", perStep, rawStep)
	}
	t.Logf("%d bytes allocated per step, %.2f of one raw step", perStep, float64(perStep)/float64(8*dim*dim*dim))
}

// Allocation guard for the separate-cores queue: a lulesh emd-spatial step
// (twelve arrays, 120 bins) allocates its indexes, each bin once at its
// exact size (the build's run lists and encode scratch are pooled), and its
// twelve run streams (0.05 of the raw step); its twelve one-byte id arrays
// — an eighth of the raw step — are mostly the previous step's, mapped
// again. That is 0.13–0.17 of a raw step in all, 0.36–0.41 under the race
// detector, whose pool drops buffers the builds then regrow (0.22 and
// 0.36–0.38 when the summaries held the ids). The bounds are 0.30 and 0.45.
// A clone of the step for the queue (what Step makes of a lent step) is a
// whole raw step more.
func TestStagedStepAllocatesAFractionOfOneRawStep(t *testing.T) {
	const dim, steps = 48, 10
	l, err := lulesh.New(dim, dim, dim)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Sim: l, Steps: steps, Select: 3, Method: Bitmaps, Bins: 120, Metric: selection.EMDSpatial, Cores: 2,
		Strategy: SeparateCores{SimCores: 1, ReduceCores: 1}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perStep := float64(after.TotalAlloc-before.TotalAlloc) / steps
	bound := 0.30
	if raceEnabled {
		bound = 0.45
	}
	if frac := perStep / float64(res.StepBytes); frac >= bound {
		t.Fatalf("the run allocated %.0f bytes per step, %.2f of one raw step (%d): a raw step is being copied into the queue", perStep, frac, res.StepBytes)
	} else {
		t.Logf("%.0f bytes allocated per step, %.2f of one raw step", perStep, frac)
	}
}

// The Figure 11 model counts what summaries hold in memory: every bitmap
// summary waits for selection as its run stream, whatever the metric — the
// average per step of which is IDBytes — and one committed step at a time
// holds its bitmaps, the average of which over the written steps is
// SummaryBytes. The model keeps window+1 streams at the paper's window of
// 10, plus one step's bitmaps.
func TestModelledPeakCountsIDs(t *testing.T) {
	const dim, window, steps, bins = 16, 10, 9, 64
	run := func(metric selection.Metric) *Result {
		h, err := heat3d.New(dim, dim, dim)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Sim: h, Steps: steps, Select: 3, Method: Bitmaps, Bins: bins, Metric: metric, Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	h, err := heat3d.New(dim, dim, dim)
	if err != nil {
		t.Fatal(err)
	}
	m, err := binning.NewUniform(h.Ranges()[0][0], h.Ranges()[0][1], bins)
	if err != nil {
		t.Fatal(err)
	}
	streams, fields := 0, make([][]float64, steps)
	for step := range fields {
		fields[step] = slices.Clone(h.StepLent(1)[0].Data)
		streams += index.ScanIDs(index.MapIDs(fields[step], m, 1), m, 1).SizeBytes()
	}
	want := int64(streams / steps)
	for metric, res := range map[string]*Result{"cond-entropy": run(selection.ConditionalEntropy), "emd-count": run(selection.EMDCount)} {
		if res.IDBytes != want || want == 0 {
			t.Fatalf("%s: run-stream bytes per step %d, want %d", metric, res.IDBytes, want)
		}
		written := 0
		for _, step := range res.Selected {
			written += index.BuildParallelCodec(fields[step], m, 1, codec.Auto).SizeBytes()
		}
		if got, want := res.SummaryBytes, int64(written/len(res.Selected)); got != want {
			t.Fatalf("%s: summary bytes %d, want the written steps' mean bitmap size %d", metric, got, want)
		}
		if got, want := res.PeakMemory, res.StepBytes+(window+1)*res.IDBytes+res.SummaryBytes; got != want {
			t.Fatalf("%s: modelled peak %d bytes, want a raw step, window+1 = %d streams and one step's bitmaps = %d", metric, got, window+1, want)
		}
	}
}

// The separate-cores queue holds stepQueueCap staged steps (a blocked
// producer holds one more) and is modelled in their bytes: one byte per
// element for bitmaps of up to 256 bins, two beyond, the sample, or the raw
// step for full data. The modelled peak of a separate-cores run is the
// shared-cores one plus the steps that were in flight.
func TestQueueSizedAndModelledInStagedBytes(t *testing.T) {
	config := func(method Method, bins int, strategy Strategy) Config {
		l, err := lulesh.New(8, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Sim: l, Steps: 10, Select: 3, Method: method, Bins: bins, SamplePct: 25, Seed: 5,
			Metric: selection.EMDCount, Cores: 2, Strategy: strategy}
	}
	const n, vars = 8 * 8 * 8, 12
	split := SeparateCores{SimCores: 1, ReduceCores: 1}
	for _, c := range []struct {
		name   string
		method Method
		bins   int
		staged int64
	}{
		{"bitmaps/120", Bitmaps, 120, n * vars},
		{"bitmaps/256", Bitmaps, 256, n * vars},
		{"bitmaps/257", Bitmaps, 257, 2 * n * vars},
		{"sampling/25%", Sampling, 120, 8 * (n / 4) * vars},
		{"fulldata", FullData, 120, 8 * n * vars},
	} {
		red, err := newReducer(config(c.method, c.bins, split))
		if err != nil {
			t.Fatal(err)
		}
		if got := red.stagedBytes(); got != c.staged {
			t.Errorf("%s: a staged step is %d bytes, want %d", c.name, got, c.staged)
		}

		separate, err := Run(config(c.method, c.bins, split))
		if err != nil {
			t.Fatal(err)
		}
		shared, err := Run(config(c.method, c.bins, SharedCores{}))
		if err != nil {
			t.Fatal(err)
		}
		if separate.QueuePeak < 1 || separate.QueuePeak > stepQueueCap+1 || shared.QueuePeak != 0 || separate.StagedBytes != c.staged {
			t.Fatalf("%s: queue peak %d (shared %d), staged step %d bytes", c.name, separate.QueuePeak, shared.QueuePeak, separate.StagedBytes)
		}
		if got, want := separate.PeakMemory-shared.PeakMemory, int64(separate.QueuePeak)*c.staged; got != want {
			t.Errorf("%s: the separate-cores modelled peak exceeds the shared-cores one by %d, want %d queued steps × %d = %d",
				c.name, got, separate.QueuePeak, c.staged, want)
		}
	}
}

// constSim hands out the same precomputed arrays at no cost, so what
// calibration times is the reducer alone.
type constSim struct {
	fields []sim.Field
}

func (s *constSim) Name() string                  { return "const" }
func (s *constSim) Elements() int                 { return len(s.fields[0].Data) }
func (s *constSim) Ranges() [][2]float64          { return [][2]float64{{0, 1}} }
func (s *constSim) Step(nWorkers int) []sim.Field { return s.fields }
func (s *constSim) Vars() []string                { return []string{s.fields[0].Name} }

// Eq. 1's T_sim is what the simulate cores run under the split it returns:
// the simulator and the stage. Over a free simulator, a method whose stage is
// the expensive half (sampling: the gather; its summary is a wrapper) pulls
// the split to the simulate side, further than one whose summarize is
// (bitmaps: the build and encode outweigh the map).
func TestCalibrateChargesStageToTheSimulateSide(t *testing.T) {
	data := make([]float64, 1<<18)
	for i := range data {
		data[i] = 0.5 + 0.5*math.Sin(float64(i)*0.01)
	}
	calibrate := func(method Method) SeparateCores {
		split, err := Calibrate(Config{Sim: &constSim{[]sim.Field{{Name: "v", Data: data}}}, Steps: 4, Select: 2,
			Method: method, Bins: 120, SamplePct: 100, Seed: 1, Cores: 8})
		if err != nil {
			t.Fatal(err)
		}
		if split.SimCores < 1 || split.ReduceCores < 1 || split.SimCores+split.ReduceCores != 8 {
			t.Fatalf("%v: split %+v", method, split)
		}
		return split
	}
	sampling, bitmaps := calibrate(Sampling), calibrate(Bitmaps)
	if sampling.SimCores <= sampling.ReduceCores {
		t.Errorf("sampling, where staging is all the work: split %+v leaves the simulate side the smaller", sampling)
	}
	if bitmaps.SimCores >= sampling.SimCores {
		t.Errorf("bitmaps, where the build outweighs the map, got %+v: no fewer simulate cores than sampling's %+v", bitmaps, sampling)
	}
}

var sinkIndex *index.Index

// The hand-off between simulate and reduce on heat3d 64³: a step the caller
// owns (Step: allocate, copy), one read in place (StepLent), each followed by
// the build that reads it — and one staged: mapped to ids where it lies, the
// ids being all the build gets.
func BenchmarkStepHandoff(b *testing.B) {
	for _, mode := range []string{"owned", "lent", "staged"} {
		b.Run(mode, func(b *testing.B) {
			h, err := heat3d.New(64, 64, 64)
			if err != nil {
				b.Fatal(err)
			}
			rg := h.Ranges()[0]
			m, err := binning.NewUniform(rg[0], rg[1], 160)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(8 * h.Elements()))
			for i := 0; i < b.N; i++ {
				switch mode {
				case "owned":
					sinkIndex = index.BuildParallelCodec(h.Step(2)[0].Data, m, 2, codec.Auto)
				case "lent":
					sinkIndex = index.BuildParallelCodec(h.StepLent(2)[0].Data, m, 2, codec.Auto)
				default:
					ids := index.MapIDs(h.StepLent(2)[0].Data, m, 2)
					sinkIndex = index.FromRuns(index.ScanIDs(ids, m, 2), m, 2, codec.Auto)
				}
			}
		})
	}
}
