package heat3d

import (
	"fmt"
	"math"
	"testing"

	"insitubits/internal/sim"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(2, 10, 10); err == nil {
		t.Error("too-small grid accepted")
	}
	if _, err := New(10, 10, 10); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
}

func TestStepShape(t *testing.T) {
	s, err := New(8, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	fields := s.Step(2)
	if len(fields) != 1 || fields[0].Name != "temperature" {
		t.Fatalf("fields = %v", fields)
	}
	if len(fields[0].Data) != 8*9*10 || s.Elements() != 720 {
		t.Fatalf("elements = %d", len(fields[0].Data))
	}
	if s.StepCount() != 1 {
		t.Fatalf("StepCount=%d", s.StepCount())
	}
	nx, ny, nz := s.Dims()
	if nx != 8 || ny != 9 || nz != 10 {
		t.Fatal("Dims wrong")
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	// The decomposition must not change the physics: 1 worker and 8 workers
	// produce bit-identical trajectories.
	s1, _ := New(12, 12, 12)
	s8, _ := New(12, 12, 12)
	for step := 0; step < 10; step++ {
		f1 := s1.Step(1)
		f8 := s8.Step(8)
		for i := range f1[0].Data {
			if f1[0].Data[i] != f8[0].Data[i] {
				t.Fatalf("step %d: worker-count dependent result at %d", step, i)
			}
		}
	}
}

func TestValuesWithinDeclaredRange(t *testing.T) {
	s, _ := New(16, 16, 16)
	lo, hi := s.Ranges()[0][0], s.Ranges()[0][1]
	for step := 0; step < 60; step++ {
		f := s.Step(4)
		for i, v := range f[0].Data {
			if v < lo || v > hi || math.IsNaN(v) {
				t.Fatalf("step %d: value %g at %d outside [%g,%g]", step, v, i, lo, hi)
			}
		}
	}
}

func TestHeatDiffuses(t *testing.T) {
	// With the source off, the interior hot core must lose heat to its
	// surroundings over time (pure diffusion).
	s, _ := New(20, 20, 20)
	s.SourceEnabled = false
	at := func(x, y, z int) int { return (z*20+y)*20 + x }
	// Peak of the hot intrusion, away from the basal plate's influence.
	peak := func() float64 {
		max := -1.0
		for z := 5; z < 19; z++ {
			for y := 1; y < 19; y++ {
				for x := 1; x < 19; x++ {
					if v := s.Temperature()[at(x, y, z)]; v > max {
						max = v
					}
				}
			}
		}
		return max
	}
	core0 := s.Temperature()[at(10, 10, 10)]
	peak0 := peak()
	for i := 0; i < 10; i++ {
		s.StepInto(4, nil)
	}
	core1 := s.Temperature()[at(10, 10, 10)]
	if !(core1 < core0) {
		t.Fatalf("hot core did not cool: %g -> %g", core0, core1)
	}
	if p := peak(); !(p < peak0) {
		t.Fatalf("intrusion peak did not decay: %g -> %g", peak0, p)
	}
	// Heat conservation sanity: a cell adjacent to the intrusion's flank
	// receives part of what the peak loses.
	if nb := s.Temperature()[at(10, 10, 13)]; nb <= 20 {
		t.Fatalf("flank cell never warmed above ambient: %g", nb)
	}
}

func TestDistributionEvolves(t *testing.T) {
	// The moving source must keep the value distribution changing — the
	// property time-step selection needs. Compare coarse histograms 30
	// steps apart.
	s, _ := New(16, 16, 16)
	hist := func(data []float64) [13]int {
		var h [13]int
		for _, v := range data {
			b := int(v / 10)
			if b < 0 {
				b = 0
			}
			if b > 12 {
				b = 12
			}
			h[b]++
		}
		return h
	}
	h0 := hist(s.Step(4)[0].Data)
	var hN [13]int
	for i := 0; i < 30; i++ {
		hN = hist(s.Step(4)[0].Data)
	}
	if h0 == hN {
		t.Fatal("value distribution static across 30 steps")
	}
}

func TestStepIntoReusesBuffer(t *testing.T) {
	s, _ := New(8, 8, 8)
	buf := make([]float64, s.Elements())
	got := s.StepInto(2, buf)
	if &got[0] != &buf[0] {
		t.Fatal("StepInto did not write into the provided buffer")
	}
}

func BenchmarkStep32(b *testing.B) {
	s, _ := New(32, 32, 32)
	b.SetBytes(int64(8 * s.Elements()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepInto(4, nil)
	}
}

// BenchmarkStep prices one step of the benchmark's grid, 128³, on one and
// two workers.
func BenchmarkStep(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("128/%d", w), func(b *testing.B) {
			s, _ := New(128, 128, 128)
			b.SetBytes(int64(8 * s.Elements()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepInto(w, nil)
			}
		})
	}
}

// referenceStep is the stencil as one loop over every element, the
// boundary test inside it: the oracle StepInto's row form must match bit for
// bit.
func referenceStep(s *Sim, nWorkers int) {
	nx, ny, nz := s.nx, s.ny, s.nz
	a := s.alpha
	cur, next := s.cur, s.next
	sim.ParallelFor(nz, nWorkers, func(zlo, zhi int) {
		for z := zlo; z < zhi; z++ {
			for y := 0; y < ny; y++ {
				base := (z*ny + y) * nx
				for x := 0; x < nx; x++ {
					i := base + x
					c := cur[i]
					if x == 0 || y == 0 || z == 0 || x == nx-1 || y == ny-1 || z == nz-1 {
						next[i] = c
						continue
					}
					lap := cur[i-1] + cur[i+1] +
						cur[i-nx] + cur[i+nx] +
						cur[i-nx*ny] + cur[i+nx*ny] - 6*c
					next[i] = c + a*lap
				}
			}
		}
	})
	s.cur, s.next = next, cur
	s.step++
	if s.SourceEnabled {
		s.injectSource()
	}
}

// StepInto's branch-free rows hold every value of the per-element stencil
// to the bit, on grids from the smallest to ones whose rows and planes are
// not multiples of anything, at every worker count (more workers than
// planes too), with the source on and off, on the lent path and into a
// caller's buffer.
func TestStencilMatchesReference(t *testing.T) {
	for _, g := range [][3]int{{3, 3, 3}, {4, 5, 6}, {17, 9, 12}, {32, 32, 32}} {
		for _, w := range []int{1, 2, 3, g[2] + 5} {
			for _, source := range []bool{true, false} {
				for _, lent := range []bool{true, false} {
					got, _ := New(g[0], g[1], g[2])
					want, _ := New(g[0], g[1], g[2])
					got.SourceEnabled, want.SourceEnabled = source, source
					buf := make([]float64, got.Elements())
					for step := 1; step <= 30; step++ {
						referenceStep(want, w)
						out := got.Temperature()
						if lent {
							out = got.StepInto(w, nil)
						} else if out = got.StepInto(w, buf); &out[0] != &buf[0] {
							t.Fatal("StepInto did not write into the provided buffer")
						}
						for i, v := range want.Temperature() {
							if math.Float64bits(got.Temperature()[i]) != math.Float64bits(v) || math.Float64bits(out[i]) != math.Float64bits(v) {
								t.Fatalf("grid %v workers=%d source=%v lent=%v: step %d, element %d is %v (returned %v), want %v",
									g, w, source, lent, step, i, got.Temperature()[i], out[i], v)
							}
						}
					}
				}
			}
		}
	}
}

func TestPlaneAccessors(t *testing.T) {
	s, _ := New(6, 5, 4)
	plane := s.PlaneZ(2, nil)
	if len(plane) != 30 {
		t.Fatalf("plane has %d cells", len(plane))
	}
	// Round trip through SetPlaneZ.
	for i := range plane {
		plane[i] = float64(i)
	}
	s.SetPlaneZ(2, plane)
	got := s.PlaneZ(2, make([]float64, 30))
	for i := range got {
		if got[i] != float64(i) {
			t.Fatalf("cell %d = %g", i, got[i])
		}
	}
	for name, fn := range map[string]func(){
		"PlaneZ out of range":    func() { s.PlaneZ(4, nil) },
		"SetPlaneZ out of range": func() { s.SetPlaneZ(-1, plane) },
		"SetPlaneZ wrong length": func() { s.SetPlaneZ(1, plane[:3]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
