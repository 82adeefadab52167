// Package sim defines the simulator abstraction the in-situ pipeline drives
// and small shared helpers. Concrete simulators live in the heat3d, lulesh
// and ocean subpackages, standing in for the paper's Heat3D, LULESH and POP
// workloads (see DESIGN.md for the substitution rationale).
package sim

import "sync"

// Field is one named output array of a time-step.
type Field struct {
	Name string
	Data []float64
}

// Simulator produces time-steps on demand. Implementations must be
// deterministic for a given construction so experiments are reproducible.
type Simulator interface {
	// Name identifies the workload ("heat3d", "lulesh", ...).
	Name() string
	// Vars lists the per-step output arrays in order.
	Vars() []string
	// Elements is the length of each output array.
	Elements() int
	// Step advances one time-step using up to nWorkers goroutines and
	// returns the output fields. The returned slices are owned by the
	// caller (the in-situ pipeline discards or summarizes them).
	Step(nWorkers int) []Field
	// Ranges returns conservative [min, max] value bounds per variable.
	// The pipeline derives one binning per variable from these so every
	// time-step is binned identically — the precondition for the paper's
	// cross-step metric computations ("the binning range of different
	// time-steps should be the same", §3.1).
	Ranges() [][2]float64
}

// Lender is a Simulator that can also lend a time-step instead of handing
// over a copy: the capability of simulators that keep their state in arrays
// of their own. A consumer that is done with the step before it asks for
// the next one, and keeps nothing of it, reads the arrays where they are.
type Lender interface {
	Simulator
	// StepLent advances one time-step exactly as Step does, but the
	// returned fields alias the simulator's own arrays: they are read-only
	// and valid only until the simulator's next Step or StepLent.
	StepLent(nWorkers int) []Field
}

// CloneFields copies lent fields into slices the caller owns: how a Lender
// implements Step.
func CloneFields(lent []Field) []Field {
	out := make([]Field, len(lent))
	for k, f := range lent {
		data := make([]float64, len(f.Data))
		copy(data, f.Data)
		out[k] = Field{Name: f.Name, Data: data}
	}
	return out
}

// ParallelFor splits [0, n) into one contiguous span per worker and runs fn
// on each span concurrently; it is the slab decomposition used by all
// simulators and the bitmap generators. A panic in any worker is re-raised
// on the calling goroutine (first panic wins), so callers can recover it —
// a worker goroutine panicking directly would kill the whole process with
// no chance of recovery.
func ParallelFor(n, workers int, fn func(lo, hi int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	chunk := n / workers
	extra := n % workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + chunk
		if w < extra {
			hi++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			fn(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// ParallelEach runs fn(w) for every worker index w in [0, workers)
// concurrently: ParallelFor for work that is striped or otherwise keyed by
// worker rather than cut into contiguous spans.
func ParallelEach(workers int, fn func(w int)) {
	ParallelFor(workers, workers, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			fn(w)
		}
	})
}
