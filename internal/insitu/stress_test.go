package insitu

import (
	"testing"

	"insitubits/internal/iosim"
	"insitubits/internal/selection"
	"insitubits/internal/sim"
	"insitubits/internal/sim/heat3d"
	"insitubits/internal/sim/lulesh"
)

// countingSim wraps a simulator and records how many times Step ran, so
// the queue tests can prove no step is lost or duplicated.
type countingSim struct {
	inner sim.Simulator
	steps int
}

func (c *countingSim) Name() string         { return c.inner.Name() }
func (c *countingSim) Vars() []string       { return c.inner.Vars() }
func (c *countingSim) Elements() int        { return c.inner.Elements() }
func (c *countingSim) Ranges() [][2]float64 { return c.inner.Ranges() }
func (c *countingSim) Step(n int) []sim.Field {
	c.steps++
	return c.inner.Step(n)
}

// TestSeparateCoresQueueInvariants runs the separate-cores strategy with
// the tightest possible queue over many steps and checks: every step
// simulated exactly once, every step consumed exactly once and in order
// (the streaming selector requires order — a violated invariant would
// corrupt the selection), and no deadlock (the test finishing is the
// proof).
func TestSeparateCoresQueueInvariants(t *testing.T) {
	for _, qcap := range []int{1, 2, 7} {
		h, err := heat3d.New(8, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		cs := &countingSim{inner: h}
		st, err := iosim.NewStore(100)
		if err != nil {
			t.Fatal(err)
		}
		const steps = 64
		res, err := Run(Config{
			Sim:    cs,
			Steps:  steps,
			Select: 16,
			Method: Bitmaps,
			Bins:   32,
			Metric: selection.EMDCount,
			Cores:  2,
			Strategy: SeparateCores{
				SimCores: 1, ReduceCores: 1, QueueCap: qcap,
			},
			Store: st,
		})
		if err != nil {
			t.Fatalf("qcap=%d: %v", qcap, err)
		}
		if cs.steps != steps {
			t.Fatalf("qcap=%d: simulator stepped %d times, want %d", qcap, cs.steps, steps)
		}
		if len(res.Selected) != 16 {
			t.Fatalf("qcap=%d: selected %v", qcap, res.Selected)
		}
		for i := 1; i < len(res.Selected); i++ {
			if res.Selected[i] <= res.Selected[i-1] {
				t.Fatalf("qcap=%d: out-of-order selection %v (queue reordered steps?)", qcap, res.Selected)
			}
		}
	}
}

// TestSeparateCoresDeterministicAcrossQueueCaps verifies the selection is a
// pure function of the data: queue capacity affects throughput only.
func TestSeparateCoresDeterministicAcrossQueueCaps(t *testing.T) {
	run := func(qcap int) []int {
		h, err := heat3d.New(10, 10, 10)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Sim: h, Steps: 30, Select: 8,
			Method: Bitmaps, Bins: 64,
			Metric:   selection.ConditionalEntropy,
			Cores:    2,
			Strategy: SeparateCores{SimCores: 1, ReduceCores: 1, QueueCap: qcap},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Selected
	}
	want := run(1)
	for _, qcap := range []int{2, 5, 30} {
		got := run(qcap)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("qcap=%d selected %v, qcap=1 selected %v", qcap, got, want)
			}
		}
	}
}

// TestMultiVarParallelScoringDeterministic: the per-variable fan-out in
// stepSummary.Dissimilarity must not change scores or selections.
func TestMultiVarParallelScoringDeterministic(t *testing.T) {
	mk := func(cores int) []int {
		// A 12-array workload exercises the parallel path.
		l := newTestLulesh(t)
		res, err := Run(Config{
			Sim: l, Steps: 10, Select: 4,
			Method: Bitmaps, Bins: 48,
			Metric: selection.EMDSpatial,
			Cores:  cores,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Selected
	}
	serial := mk(1)
	parallel := mk(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("cores changed selection: %v vs %v", serial, parallel)
		}
	}
}

func newTestLulesh(t *testing.T) sim.Simulator {
	t.Helper()
	l, err := lulesh.New(7, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	return l
}
