package insitu

import (
	"fmt"
	"math"
	"runtime"
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

// A lent step is never retained: shared-cores bitmap and sampling runs read
// each step where the simulator keeps it, and must write exactly the bytes —
// manifest, journal with its scores, every artifact — of the same run over a
// simulator that hands out copies.
func TestLentStepNeverRetained(t *testing.T) {
	for _, method := range []Method{Bitmaps, Sampling} {
		for _, mk := range []func() sim.Simulator{
			func() sim.Simulator { h, _ := heat3d.New(14, 14, 14); return h },
			func() sim.Simulator { l, _ := lulesh.New(7, 7, 7); return l },
		} {
			config := func() Config {
				return Config{Sim: mk(), Steps: 12, Select: 4, Method: method, Bins: 48, SamplePct: 25, Seed: 3,
					Metric: selection.ConditionalEntropy, Cores: 2, OutputDir: t.TempDir()}
			}
			owning := config()
			owning.Sim = ownerOnly{owning.Sim}
			if _, err := Run(owning); err != nil {
				t.Fatal(err)
			}
			want := snapshot(t, owning.OutputDir)
			label := fmt.Sprintf("%v over %s", method, owning.Sim.Name())

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

// ownerOnly hides a simulator's StepLent, leaving the plain sim.Simulator.
type ownerOnly struct{ sim.Simulator }

// A lent step is never taken where it would be retained: a full-data summary
// is the raw array and the separate-cores queue holds steps while the
// simulator runs on, so both must ask for owned copies — and calibration,
// which alternates like shared cores, may lend.
func TestLentStepOnlyWhereSafe(t *testing.T) {
	base := func() Config {
		h, err := heat3d.New(12, 12, 12)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Sim: h, Steps: 8, Select: 3, Bins: 32, SamplePct: 50, Metric: selection.EMDCount, Cores: 3}
	}
	for _, c := range []struct {
		name     string
		method   Method
		strategy Strategy
		lent     bool
	}{
		{"shared/bitmaps", Bitmaps, SharedCores{}, true},
		{"shared/sampling", Sampling, SharedCores{}, true},
		{"shared/fulldata", FullData, SharedCores{}, false},
		{"separate/bitmaps", Bitmaps, SeparateCores{SimCores: 1, ReduceCores: 2}, false},
		{"separate/sampling", Sampling, SeparateCores{SimCores: 1, ReduceCores: 2}, false},
		{"separate/fulldata", FullData, SeparateCores{SimCores: 1, ReduceCores: 2}, false},
	} {
		cfg := base()
		cfg.Method, cfg.Strategy = c.method, c.strategy
		_, p := runPoisoned(t, cfg)
		if wantLent, wantOwned := lentOwned(c.lent, 8); p.lends != wantLent || p.owned != wantOwned {
			t.Errorf("%s: %d lent and %d owned steps, want %d and %d", c.name, p.lends, p.owned, wantLent, wantOwned)
		}
	}
	for _, method := range []Method{Bitmaps, FullData} {
		cfg := base()
		p := &poisoningLender{Simulator: cfg.Sim}
		cfg.Sim, cfg.Method = p, method
		if _, err := Calibrate(cfg, 3); err != nil {
			t.Fatal(err)
		}
		if wantLent, wantOwned := lentOwned(method != FullData, 3); p.lends != wantLent || p.owned != wantOwned {
			t.Errorf("calibrate/%v: %d lent and %d owned steps, want %d and %d", method, p.lends, p.owned, wantLent, wantOwned)
		}
	}
}

// lentOwned is how many of a run's steps should have been lent and owned.
func lentOwned(lent bool, steps int) (int, int) {
	if lent {
		return steps, 0
	}
	return 0, steps
}

// Allocation guard: a shared-cores conditional-entropy step over heat3d may
// allocate its index, its n one-byte ids and small change — less than one
// raw step (8n bytes). A copy of the step (8n) or an id array decoded per
// score (4n at the old width) would put it back above.
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

// The Figure 11 model counts what summaries hold in memory: a conditional-
// entropy summary carries one id per element next to its bitmaps, an
// EMD-count summary of the same data does not, and the model keeps window+1
// summaries.
func TestModelledPeakCountsIDs(t *testing.T) {
	const dim, window = 16, 6
	run := func(metric selection.Metric) *Result {
		h, err := heat3d.New(dim, dim, dim)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Sim: h, Steps: 9, Select: 3, Method: Bitmaps, Bins: 64, Metric: metric, Cores: 2, Window: window})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ce, emd := run(selection.ConditionalEntropy), run(selection.EMDCount)
	const idArray = dim * dim * dim // 64 bins: one byte per element
	if ce.IDBytes != idArray || emd.IDBytes != 0 {
		t.Fatalf("id bytes per step: cond-entropy %d (want %d), emd-count %d (want 0)", ce.IDBytes, idArray, emd.IDBytes)
	}
	if ce.SummaryBytes != emd.SummaryBytes {
		t.Fatalf("written summary size moved with the metric: %d vs %d", ce.SummaryBytes, emd.SummaryBytes)
	}
	if got, want := ce.PeakMemory-emd.PeakMemory, int64((window+1)*idArray); got != want {
		t.Fatalf("modelled peak grew by %d bytes with ids, want window+1 = %d id arrays = %d", got, window+1, want)
	}
}

var sinkIndex *index.Index

// The hand-off between simulate and reduce on heat3d 64³: a step the caller
// owns (Step: allocate, copy) against one read in place (StepLent), each
// followed by the build that reads it.
func BenchmarkStepHandoff(b *testing.B) {
	for _, mode := range []string{"owned", "lent"} {
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
				fields := step(h, 2, mode == "lent")
				sinkIndex = index.BuildParallelCodec(fields[0].Data, m, 2, codec.Auto)
			}
		})
	}
}
